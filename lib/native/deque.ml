(* Lock-free bounded SPMC run queue (ebsl-style work-stealing deque).

   One owner pushes at the back; any domain (the owner included) takes
   from the front, so thieves steal the oldest work — FIFO per queue,
   which keeps single-worker scheduling deterministic and bounds fiber
   latency under load.

   Layout: a power-of-two ring of [Atomic] cells indexed by monotonically
   increasing [front]/[back] counters (no ABA: counters never wrap in
   practice, and equality is only ever tested on counters, not cells).

   Invariants that make the minimal protocol safe:
   - The owner writes a cell before publishing it by advancing [back]
     (both are SC atomics), so [front < back] implies the cell is filled.
   - The owner only reuses a cell one lap later, after [front] has passed
     it (the not-full check), so a consumer that reads a cell and then
     wins the [front] CAS is guaranteed the value it read was that
     slot's: an overwrite would require [front] to have already passed,
     which would have failed the CAS.
   - After winning, the consumer clears the cell with a CAS (not a plain
     store): if the owner has already lapped onto the cell, the clear
     harmlessly fails instead of destroying the new value. *)

type 'a t = {
  cells : 'a option Atomic.t array;
  mask : int;
  front : int Atomic.t;  (* next slot to consume *)
  back : int Atomic.t;  (* next slot to fill (owner-only writes) *)
}

let create ?(capacity = 8192) () =
  let cap =
    let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
    pow2 8
  in
  {
    cells = Array.init cap (fun _ -> Atomic.make None);
    mask = cap - 1;
    front = Atomic.make 0;
    back = Atomic.make 0;
  }

let length t =
  let b = Atomic.get t.back and f = Atomic.get t.front in
  max 0 (b - f)

(* Owner only.  Returns [false] when the ring is full (caller overflows
   to a locked injector rather than dropping work). *)
let push t v =
  let b = Atomic.get t.back in
  let f = Atomic.get t.front in
  if b - f > t.mask then false
  else begin
    Atomic.set t.cells.(b land t.mask) (Some v);
    Atomic.set t.back (b + 1);
    true
  end

(* Any domain: take the oldest element, or [None] when empty. *)
let take t =
  let rec loop () =
    let f = Atomic.get t.front in
    let b = Atomic.get t.back in
    if b - f <= 0 then None
    else begin
      let cell = t.cells.(f land t.mask) in
      let v = Atomic.get cell in
      if Atomic.compare_and_set t.front f (f + 1) then begin
        (match v with
        | Some _ -> ()
        | None ->
          (* unreachable: the owner publishes the cell before [back], and
             no consumer cleared it before our front CAS won *)
          assert false);
        ignore (Atomic.compare_and_set cell v None);
        v
      end
      else loop ()
    end
  in
  loop ()
