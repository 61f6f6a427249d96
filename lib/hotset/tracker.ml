type t = {
  sample_every : int;
  reservoir : int64 array;
  mutable seen : int; (* keys offered since last rebuild *)
  mutable stored : int; (* samples in the reservoir (<= capacity) *)
  mutable cursor : int; (* ring write position *)
  cms : Cms.t;
}

let reservoir_size = 65_536
let cms_width = 16_384

let create ~sample_every =
  if sample_every <= 0 then invalid_arg "Tracker.create";
  {
    sample_every;
    reservoir = Array.make reservoir_size 0L;
    seen = 0;
    stored = 0;
    cursor = 0;
    cms = Cms.create ~width:cms_width ();
  }

let record t key =
  t.seen <- t.seen + 1;
  if t.seen mod t.sample_every = 0 then begin
    t.reservoir.(t.cursor) <- key;
    t.cursor <- (t.cursor + 1) mod Array.length t.reservoir;
    if t.stored < Array.length t.reservoir then t.stored <- t.stored + 1
  end

let samples_pending t = t.stored

let rebuild t ~k =
  Cms.clear t.cms;
  for i = 0 to t.stored - 1 do
    Cms.add t.cms t.reservoir.(i)
  done;
  let top = Topk.create ~k in
  for i = 0 to t.stored - 1 do
    let key = t.reservoir.(i) in
    Topk.offer top key (Cms.estimate t.cms key)
  done;
  t.seen <- 0;
  t.stored <- 0;
  t.cursor <- 0;
  Topk.contents top
