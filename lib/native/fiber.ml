(* Effect-based fibers: the native mirror of Simthread's cooperative API.

   A fiber is an ordinary function run under a deep [match_with] handler.
   Its one effect, [yield], reschedules the continuation through the
   scheduler's [schedule] callback.  Because the handler is deep, the
   continuation carries it along — a stolen fiber resumed on another
   domain keeps yielding through the same handler, which is what lets the
   work-stealing scheduler move fibers freely between domains (one-shot
   continuations are single-resume, so a fiber is never running on two
   domains at once). *)

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

exception Stop
(* Cooperative-shutdown signal: the server's shard and poller fibers
   raise it at a turn boundary once the server stops; [run] treats it as
   a normal exit. *)

let yield () = perform Yield

let run ~schedule ~on_done body =
  match_with
    (fun () ->
      match body () with
      | () -> on_done None
      | exception Stop -> on_done None
      | exception e -> on_done (Some e))
    ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                schedule (fun () -> continue k ()))
          | _ -> None);
    }
