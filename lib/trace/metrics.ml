type kind = Counter | Gauge

type entry = {
  scope : string;
  subsystem : string;
  name : string;
  kind : kind;
  engine_id : int;
  read : unit -> float;
}

(* One registry may collect from several domains at once (the parallel
   experiment runner builds systems concurrently), so the entry list is
   mutex-protected.  The registration scope, by contrast, is domain-local
   *per registry*: each worker domain labels the system it is currently
   building without clobbering its siblings' labels, and two registries
   never share a scope. *)
type t = {
  mutable rev_entries : entry list;
  lock : Mutex.t;
  scope_key : string Domain.DLS.key;
}

let create () =
  {
    rev_entries = [];
    lock = Mutex.create ();
    scope_key = Domain.DLS.new_key (fun () -> "");
  }

let set_scope t scope = Domain.DLS.set t.scope_key scope
let scope t = Domain.DLS.get t.scope_key

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register ?(kind = Gauge) ?(engine_id = -1) t ~subsystem ~name read =
  let scope = Domain.DLS.get t.scope_key in
  locked t (fun () ->
      t.rev_entries <-
        { scope; subsystem; name; kind; engine_id; read } :: t.rev_entries)

let entries t = locked t (fun () -> List.rev t.rev_entries)
let size t = locked t (fun () -> List.length t.rev_entries)

(* Domain-local registry consulted by subsystem constructors
   (Backend.create, Mutps.create, Autotuner.create), following the
   Engine.set_sanitizer_factory pattern: installing a registry before a
   run lets every system built inside register its sources without
   threading a parameter through the experiment code.  New domains
   inherit the parent's registry at spawn, so a registry installed before
   a parallel fan-out collects from every worker domain. *)
let current_reg : t option Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> None)

let set_current r = Domain.DLS.set current_reg r
let current () = Domain.DLS.get current_reg

let track_name e =
  let base = e.subsystem ^ "." ^ e.name in
  if e.scope = "" then base else e.scope ^ "/" ^ base

let kind_name = function Counter -> "counter" | Gauge -> "gauge"

(* Render a value compactly and always as valid CSV/JSON: integral floats
   without an exponent, non-finite values as 0. *)
let value_to_string v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b "scope,subsystem,name,kind,value\n";
  List.iter
    (fun (e : entry) ->
      Printf.bprintf b "%s,%s,%s,%s,%s\n" e.scope e.subsystem e.name
        (kind_name e.kind)
        (value_to_string (e.read ())))
    (entries t);
  Buffer.contents b

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "[";
  List.iteri
    (fun i (e : entry) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"scope\":\"";
      Json.escape b e.scope;
      Buffer.add_string b "\",\"subsystem\":\"";
      Json.escape b e.subsystem;
      Buffer.add_string b "\",\"name\":\"";
      Json.escape b e.name;
      Buffer.add_string b "\",\"kind\":\"";
      Buffer.add_string b (kind_name e.kind);
      Buffer.add_string b "\",\"value\":";
      Buffer.add_string b (value_to_string (e.read ()));
      Buffer.add_char b '}')
    (entries t);
  Buffer.add_string b "]";
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (if Filename.check_suffix path ".json" then to_json t else to_csv t))
