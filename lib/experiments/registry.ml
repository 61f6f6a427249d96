type entry = {
  name : string;
  description : string;
  run : Harness.scale -> Report.row list;
}

let all =
  [
    {
      name = "table1";
      description = "Twitter trace characteristics (spec vs generated)";
      run = Table1.run;
    };
    {
      name = "fig2a";
      description = "NP-TPS vs NP-TPQ vs NP-TPQ+CAT, uniform gets";
      run = Fig2.run_2a;
    };
    {
      name = "fig2b";
      description = "index lookup with hotspot separation";
      run = Fig2.run_2b;
    };
    {
      name = "fig2c";
      description = "SE vs SN vs uTPS puts vs thread count";
      run = Fig2.run_2c;
    };
    {
      name = "fig7";
      description = "overall YCSB grid (mixes x sizes x indexes x systems)";
      run = Fig7.run;
    };
    {
      name = "fig8a";
      description = "scan throughput (YCSB-E, scan-only)";
      run = Fig8.run_8a;
    };
    {
      name = "fig8bc";
      description = "Meta ETC pool at 10/50/90% gets";
      run = Fig8.run_8bc;
    };
    { name = "fig9"; description = "Twitter traces"; run = Fig9.run };
    {
      name = "fig10";
      description = "throughput vs P50/P99 latency vs client count";
      run = Fig10.run;
    };
    {
      name = "fig11";
      description = "scalability with worker threads";
      run = Fig11.run;
    };
    { name = "fig12"; description = "effects of batching"; run = Fig12.run };
    {
      name = "fig13";
      description = "auto-tuner: core/LLC/cache-size choices";
      run = Fig13.run;
    };
    {
      name = "fig14";
      description = "dynamic workload timeline with auto-tuner";
      run = Fig14.run;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let names () = List.map (fun e -> e.name) all
