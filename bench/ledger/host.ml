(* What the ledger reads from the host: CPU placement, child processes
   that talk back in metric lines, and the /proc counters of a process
   measured from outside. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---- CPU placement ------------------------------------------------- *)

(* "0-1" or "0,2-5" from /proc/self/status's Cpus_allowed_list. *)
let parse_cpu_list s =
  String.split_on_char ',' (String.trim s)
  |> List.concat_map (fun part ->
         match String.split_on_char '-' part with
         | [ a ] -> [ int_of_string a ]
         | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (fun i -> int_of_string a + i)
         | _ -> [])

let status_field text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | Some _ | None -> None)

let find_in_path prog =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    String.split_on_char ':' path
    |> List.find_map (fun dir ->
           let p = Filename.concat dir prog in
           if Sys.file_exists p then Some p else None)

(* The client (this process) runs on the first allowed CPU and every
   measured child on the last one, so a busy-polling server never
   competes with the load it serves.  With one CPU, or without
   [taskset], nothing is pinned. *)
type placement = { taskset : string; client_cpu : int; worker_cpu : int }

let placement () =
  let cpus =
    match status_field (read_file "/proc/self/status") "Cpus_allowed_list" with
    | Some s -> parse_cpu_list s
    | None -> []
  in
  match (find_in_path "taskset", cpus) with
  | Some taskset, first :: (_ :: _ as rest) ->
    Some { taskset; client_cpu = first; worker_cpu = List.nth rest (List.length rest - 1) }
  | _ -> None

let pinned placement argv =
  match placement with
  | Some p -> p.taskset :: "-c" :: string_of_int p.worker_cpu :: argv
  | None -> argv

(* ---- children ------------------------------------------------------ *)

type child = { pid : int; input : out_channel; output : in_channel }

let spawn argv =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; input = Unix.out_channel_of_descr in_w; output = Unix.in_channel_of_descr out_r }

let read_line c = In_channel.input_line c.output

(* Close the child's stdin (its signal to wind down), collect the rest of
   its output and reap it. *)
let finish c =
  close_out_noerr c.input;
  let rec drain acc =
    match In_channel.input_line c.output with
    | Some l -> drain (l :: acc)
    | None -> List.rev acc
  in
  let lines = drain [] in
  close_in_noerr c.output;
  let _, status = Unix.waitpid [] c.pid in
  (lines, status)

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (finish c)

let pin_self placement =
  match placement with
  | None -> ()
  | Some p ->
    let c =
      spawn
        [ p.taskset; "-a"; "-p"; "-c"; string_of_int p.client_cpu;
          string_of_int (Unix.getpid ()) ]
    in
    ignore (finish c)

(* Children report in lines "M <name> <value>", values printed with all
   17 significant digits so a deterministic number survives exactly. *)
let print_metric name v = Printf.printf "M %s %.17g\n" name v

(* A named value of a metric list; nan when absent, so a missing metric
   fails the completeness check instead of reading 0. *)
let metric name metrics = Option.value ~default:nan (List.assoc_opt name metrics)

let metrics_of_lines lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "M"; name; v ] -> Option.map (fun v -> (name, v)) (float_of_string_opt v)
      | _ -> None)
    lines

(* ---- /proc counters of a process ------------------------------------ *)

type usage = {
  cpu_ns : int;  (** on-CPU time summed over threads (schedstat) *)
  user_ticks : int;
  sys_ticks : int;
  read_calls : int;
  write_calls : int;
  preempted : int;  (** involuntary context switches over threads *)
}

let int_field text key =
  match status_field text key with
  | Some v -> (
    match String.split_on_char ' ' v with
    | n :: _ -> Option.value ~default:0 (int_of_string_opt n)
    | [] -> 0)
  | None -> 0

(* A thread may exit between listing and reading; it then counts 0. *)
let per_thread pid f =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      acc + (try f (Printf.sprintf "%s/%s" dir tid) with Sys_error _ -> 0))
    0 (Sys.readdir dir)

let usage pid =
  let cpu_ns =
    per_thread pid (fun t ->
        Scanf.sscanf (read_file (t ^ "/schedstat")) "%d" Fun.id)
  in
  let preempted =
    per_thread pid (fun t -> int_field (read_file (t ^ "/status")) "nonvoluntary_ctxt_switches")
  in
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the ")" closing the command name: state is field 3, so
     utime (14) and stime (15) sit at offsets 11 and 12 *)
  let start = String.rindex stat ')' + 2 in
  let fields =
    Array.of_list (String.split_on_char ' ' (String.sub stat start (String.length stat - start)))
  in
  let io = read_file (Printf.sprintf "/proc/%d/io" pid) in
  {
    cpu_ns;
    user_ticks = int_of_string fields.(11);
    sys_ticks = int_of_string fields.(12);
    read_calls = int_field io "syscr";
    write_calls = int_field io "syscw";
    preempted;
  }

let no_usage =
  { cpu_ns = 0; user_ticks = 0; sys_ticks = 0; read_calls = 0; write_calls = 0; preempted = 0 }

let diff a b =
  {
    cpu_ns = b.cpu_ns - a.cpu_ns;
    user_ticks = b.user_ticks - a.user_ticks;
    sys_ticks = b.sys_ticks - a.sys_ticks;
    read_calls = b.read_calls - a.read_calls;
    write_calls = b.write_calls - a.write_calls;
    preempted = b.preempted - a.preempted;
  }

let self_cpu_ns () = Scanf.sscanf (read_file "/proc/thread-self/schedstat") "%d" Fun.id

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  float_of_int (int_field (read_file (Printf.sprintf "/proc/%d/status" pid)) "VmHWM") /. 1024.0

(* ---- host speed --------------------------------------------------------- *)

(* A fixed piece of CPU and cache work that owes nothing to the
   repository's code: hashed read-modify-writes over an 8 MiB array.
   Timed on the calling thread's CPU next to the work it calibrates, it
   tells how fast the host runs right now — on a shared VM the same code
   can take anywhere from 1x to 1.7x as long from one minute to the next. *)
type probe = int array

let probe_words = 1 lsl 20

let run_probe (a : probe) =
  let h = ref 0x1234567 in
  for i = 1 to 2_000_000 do
    h := ((!h * 0x9E3779B1) + i) land 0x3FFFFFFF;
    let j = !h land (probe_words - 1) in
    a.(j) <- a.(j) + !h
  done

(* A probe whose pages are already touched, so its first timing is not a
   page-fault count. *)
let probe () =
  let a = Array.make probe_words 0 in
  run_probe a;
  a

let probe_ns a =
  let c = self_cpu_ns () in
  run_probe a;
  self_cpu_ns () - c
