module Env = Mutps_mem.Env
module Simthread = Mutps_sim.Simthread

type t = {
  make_env : Simthread.ctx -> core:int -> Env.t;
  idle : Simthread.ctx -> unit;
  flush : Simthread.ctx -> unit;
  delay : Simthread.ctx -> int -> unit;
}

let sim (cfg : Config.t) ~hier =
  {
    make_env = (fun ctx ~core -> Env.make ~ctx ~hier ~core);
    idle = (fun ctx -> Simthread.delay ctx cfg.Config.poll_idle_cycles);
    flush = (fun ctx -> Simthread.commit ctx);
    delay = (fun ctx n -> Simthread.delay ctx n);
  }
