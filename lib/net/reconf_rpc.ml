module Env = Mutps_mem.Env

type config = Nic.config = {
  ring_bytes : int;
  resp_buf_bytes : int;
  doorbell_cycles : int;
}

let default_config =
  { ring_bytes = 4 * 1024 * 1024; resp_buf_bytes = 64 * 1024; doorbell_cycles = 30 }

type t = {
  nic : Nic.t;
  ring : Nic.ring;
  max_workers : int;
  cursors : int array; (* per worker: next candidate slot seq *)
  (* Worker-count regimes: [(from_seq, n); ...] ascending by from_seq, the
     first element starting at 0 (after pruning, at any consumed point).
     Slot [seq] is owned by [seq mod n] of the regime containing it.  A
     reconfiguration appends a segment at the current write position — the
     "predefined slot" of §3.5 — and old segments are pruned once every
     worker has consumed its slots below the next switch. *)
  mutable regimes : (int * int) list;
}

let create ?(config = default_config) ~engine ~hier ~layout ~link ~max_workers
    ~workers () =
  if workers <= 0 || workers > max_workers then
    invalid_arg "Reconf_rpc.create: bad worker count";
  let ring = Nic.ring layout ~name:"rpc-rx-ring" config in
  let nic =
    Nic.create ~name:"Reconf_rpc" ~config ~engine ~hier ~layout ~link
      ~resp_name:"rpc-resp-bufs" ~workers:max_workers
  in
  {
    nic;
    ring;
    max_workers;
    cursors = Array.make max_workers 0;
    regimes = [ (0, workers) ];
  }

(* slot seqs are the ring's write count *)
let write_seq t = Nic.written t.ring

let last_regime t =
  match List.rev t.regimes with
  | (from, n) :: _ -> (from, n)
  | [] -> assert false

let workers t = snd (last_regime t)
let reconfig_in_progress t = List.length t.regimes > 1
let responded t = Nic.responded t.nic
let outstanding t = Nic.outstanding t.nic

(* which worker owns slot [seq] *)
let owner t seq =
  let rec go n = function
    | (from, n') :: rest when from <= seq -> go n' rest
    | _ -> seq mod n
  in
  match t.regimes with
  | (_, n0) :: rest -> go n0 rest
  | [] -> assert false

(* Smallest own slot >= [from] for worker [w]; None when [w] owns nothing
   at or after [from] under any current or future regime. *)
let next_owned t w from =
  let next_mod n from = from + (((w - from) mod n) + n) mod n in
  let rec go = function
    | [] -> None
    | [ (a, n) ] -> if w < n then Some (next_mod n (max from a)) else None
    | (a, n) :: ((b, _) :: _ as rest) ->
      if from >= b || w >= n then go rest
      else begin
        let c = next_mod n (max from a) in
        if c < b then Some c else go rest
      end
  in
  go t.regimes

(* Prune regime segments whose slots every owning worker has consumed. *)
let rec maybe_prune t =
  match t.regimes with
  | (_, n_first) :: ((second_from, _) :: _ as rest) ->
    let all_crossed = ref true in
    for w = 0 to n_first - 1 do
      if t.cursors.(w) < second_from then all_crossed := false
    done;
    if !all_crossed then begin
      t.regimes <- rest;
      maybe_prune t
    end
  | _ -> ()

let set_workers t n =
  if n <= 0 || n > t.max_workers then invalid_arg "Reconf_rpc.set_workers";
  if n <> workers t then begin
    let from, _ = last_regime t in
    if from = write_seq t then
      (* no slot delivered under the pending regime yet: replace it *)
      t.regimes <-
        (match List.rev t.regimes with
        | _ :: older -> List.rev ((write_seq t, n) :: older)
        | [] -> assert false)
    else t.regimes <- t.regimes @ [ (write_seq t, n) ];
    maybe_prune t
  end

let deliver t msg = Nic.deliver t.nic t.ring ~seq:(write_seq t) msg

let poll t env ~worker =
  if worker < 0 || worker >= t.max_workers then invalid_arg "Reconf_rpc.poll";
  Env.commit env;
  match next_owned t worker t.cursors.(worker) with
  | None ->
    Nic.empty_poll env t.ring;
    (* departed worker: move its cursor to the latest switch point so
       pruning and the reconfiguration protocol can observe it crossed *)
    let last_from, _ = last_regime t in
    if t.cursors.(worker) < last_from then begin
      t.cursors.(worker) <- last_from;
      maybe_prune t
    end;
    None
  | Some candidate when candidate >= write_seq t ->
    Nic.empty_poll env t.ring;
    None
  | Some candidate ->
    assert (owner t candidate = worker);
    t.cursors.(worker) <- candidate + 1;
    maybe_prune t;
    Nic.claim t.nic env candidate

let transport t =
  Nic.transport t.nic ~deliver:(deliver t) ~poll:(poll t)
    ~set_workers:(set_workers t)
    ~reconfig_in_progress:(fun () -> reconfig_in_progress t)
