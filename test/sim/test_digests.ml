(* Engine-equivalence regression: every experiment must
   produce byte-identical canonical Report JSON across scheduler
   rewrites.  The committed golden (test/golden/experiment_digests.json)
   was generated with the pre-calendar-queue binary-heap engine, so a
   green run proves the calendar queue preserves the (time, seq) total
   order on every real schedule the evaluation exercises — not just on
   the QCheck-generated ones.

   Regenerate (after an intentional cost-model or protocol change) with:
     MUTPS_UPDATE_GOLDEN=$PWD/test/golden/experiment_digests.json \
       dune exec test/sim/test_digests.exe *)

open Mutps_experiments

(* Fixed literal scale: small enough for dune runtest, large enough that
   every subsystem (hot cache, rings, autotuner, windowing) is exercised.
   Deliberately independent of MUTPS_BENCH_SCALE — the digests gate code,
   not configuration. *)
let scale =
  {
    Harness.keyspace = 1_500;
    cores = 4;
    clients = 8;
    window = 2;
    warmup = 100_000;
    measure = 250_000;
    sample = None;
  }

let digest_of (e : Registry.entry) =
  let buf = Buffer.create 4096 in
  let rows = Harness.with_output buf (fun () -> e.Registry.run scale) in
  Digest.to_hex (Digest.string (Report.to_json rows))

(* --- trivial flat-object JSON golden: {"name": "md5hex", ...} --- *)

let golden_to_string entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (name, d) ->
      Buffer.add_string b (Printf.sprintf "  %S: %S" name d);
      if i < List.length entries - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    entries;
  Buffer.add_string b "}\n";
  Buffer.contents b

let golden_of_string s =
  (* accepts exactly the renderer's output shape: one "key": "value" pair
     per line *)
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '"' with
         | None -> None
         | Some i -> (
           match String.index_from_opt line (i + 1) '"' with
           | None -> None
           | Some j ->
             let name = String.sub line (i + 1) (j - i - 1) in
             (match String.index_from_opt line (j + 1) '"' with
             | None -> None
             | Some k -> (
               match String.index_from_opt line (k + 1) '"' with
               | None -> None
               | Some l -> Some (name, String.sub line (k + 1) (l - k - 1))))))

(* dune runtest runs us inside test/sim; dune exec from the workspace
   root — accept either *)
let golden_path =
  let runtest = "../golden/experiment_digests.json" in
  if Sys.file_exists runtest then runtest
  else "test/golden/experiment_digests.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  match Sys.getenv_opt "MUTPS_UPDATE_GOLDEN" with
  | Some out ->
    let entries =
      List.map (fun e -> (e.Registry.name, digest_of e)) Registry.all
    in
    let oc = open_out_bin out in
    output_string oc (golden_to_string entries);
    close_out oc;
    Printf.printf "wrote %d digests -> %s\n" (List.length entries) out
  | None ->
    let golden = golden_of_string (read_file golden_path) in
    let check (e : Registry.entry) () =
      match List.assoc_opt e.Registry.name golden with
      | None ->
        Alcotest.failf "%s missing from %s (regenerate the golden)"
          e.Registry.name golden_path
      | Some expected ->
        Alcotest.(check string)
          (e.Registry.name ^ " canonical JSON digest")
          expected (digest_of e)
    in
    Alcotest.run "digests"
      [
        ( "experiments",
          List.map
            (fun (e : Registry.entry) ->
              Alcotest.test_case e.Registry.name `Quick (check e))
            Registry.all );
      ]
