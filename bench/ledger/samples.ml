(* Sample buffers and the order statistics the ledger reports. *)

(* A growable int buffer: per-request latencies and span stamps are
   pushed on the client's hot loop without allocating per sample. *)
type vec = { mutable data : int array; mutable len : int }

let vec () = { data = Array.make 4096 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let length v = v.len
let get v i = v.data.(i)

let sorted v =
  let a = Array.sub v.data 0 v.len in
  Array.sort Int.compare a;
  a

(* [p]-th percentile of sorted integer readings taken on a clock that
   ticks in whole units (wall-clock microseconds, simulated cycles).  The
   nearest-rank reading is refined by where the rank falls among the
   readings equal to it, as if each reading were spread uniformly over
   its tick: a quantised clock then still yields a continuous estimate,
   instead of one that sticks to the same integer run after run. *)
let percentile (a : int array) p =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank = Float.min (p /. 100.0 *. float_of_int n) (float_of_int n -. 0.5) in
    let v = a.(int_of_float rank) in
    let lo = ref (int_of_float rank) in
    while !lo > 0 && a.(!lo - 1) = v do decr lo done;
    let hi = ref (int_of_float rank + 1) in
    while !hi < n && a.(!hi) = v do incr hi done;
    float_of_int v -. 0.5 +. ((rank -. float_of_int !lo) /. float_of_int (!hi - !lo))
  end

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum = function [] -> nan | x :: xs -> List.fold_left Float.min x xs
let maximum = function [] -> nan | x :: xs -> List.fold_left Float.max x xs

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
