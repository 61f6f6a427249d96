(* The native runtime's single wall-clock seam.

   The R1 lint bans wall-clock reads across the closed world because the
   simulator's results must be bit-reproducible.  The native twin is
   measured by the hardware clock by definition, so every wall-time read
   it makes is concentrated here, behind one audited file-level
   suppression — nothing else under lib/native touches the clock, which
   keeps "what is nondeterministic" reviewable at a glance. *)
[@@@lint.allow "R1"]

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
