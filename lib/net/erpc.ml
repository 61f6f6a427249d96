module Env = Mutps_mem.Env

type config = Nic.config = {
  ring_bytes : int;
  resp_buf_bytes : int;
  doorbell_cycles : int;
}

let default_config =
  { ring_bytes = 1024 * 1024; resp_buf_bytes = 64 * 1024; doorbell_cycles = 25 }

(* slot seqs are globally unique: seq = per_ring_seq * workers + worker *)
type t = {
  nic : Nic.t;
  rings : Nic.ring array;
  cursors : int array; (* per worker: next per-ring seq to poll *)
}

let create ?(config = default_config) ~engine ~hier ~layout ~link ~workers () =
  if workers <= 0 then invalid_arg "Erpc.create";
  (* response buffers before the rings: layout order fixes addresses *)
  let nic =
    Nic.create ~name:"Erpc" ~config ~engine ~hier ~layout ~link
      ~resp_name:"erpc-resp-bufs" ~workers
  in
  {
    nic;
    rings =
      Array.init workers (fun i ->
          Nic.ring layout ~name:(Printf.sprintf "erpc-rx-%d" i) config);
    cursors = Array.make workers 0;
  }

let deliver t (msg : Message.t) =
  let worker = msg.Message.target in
  let workers = Array.length t.rings in
  if worker < 0 || worker >= workers then
    invalid_arg "Erpc.deliver: message must target a worker";
  let ring = t.rings.(worker) in
  Nic.deliver t.nic ring ~seq:((Nic.written ring * workers) + worker) msg

let poll t env ~worker =
  let workers = Array.length t.rings in
  if worker < 0 || worker >= workers then invalid_arg "Erpc.poll";
  let ring = t.rings.(worker) in
  Env.commit env;
  let cursor = t.cursors.(worker) in
  if cursor >= Nic.written ring then begin
    Nic.empty_poll env ring;
    None
  end
  else begin
    t.cursors.(worker) <- cursor + 1;
    Nic.claim t.nic env ((cursor * workers) + worker)
  end

let transport t =
  Nic.transport t.nic ~deliver:(deliver t) ~poll:(poll t)
    ~set_workers:(fun _ ->
      invalid_arg "Erpc: changing the worker count requires client coordination")
    ~reconfig_in_progress:(fun () -> false)
