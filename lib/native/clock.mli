(** The native runtime's single wall-clock seam: the only place under
    [lib/native] allowed to read the hardware clock (file-level
    [\[@@@lint.allow "R1"\]] — the simulator's determinism rule does not
    apply to the hardware twin, but concentrating the reads keeps the
    nondeterministic surface reviewable). *)

val now_ns : unit -> int
(** Wall time in integer nanoseconds (latency timestamps, durations,
    deadlines). *)
