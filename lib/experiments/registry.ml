type entry = {
  name : string;
  doc : string;
  run : seed:int64 -> quick:bool -> jobs:int -> Format.formatter -> unit;
}

let hour_duration quick = if quick then 600. else 3600.
let batch_count quick = if quick then 30 else 100

let all =
  [
    {
      name = "table1";
      doc = "Table I: measurement hosts.  Ignores --seed, --quick and --jobs.";
      run = (fun ~seed:_ ~quick:_ ~jobs:_ ppf -> Table1.print ppf);
    };
    {
      name = "table2";
      doc = "Table II: 1-hour trace summaries, sim vs paper.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          Table2.(
            print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ())));
    };
    {
      name = "figwindow";
      doc =
        "Figs. 1/3/5: window-evolution sample paths.  Ignores --quick and \
         --jobs.";
      run =
        (fun ~seed ~quick:_ ~jobs:_ ppf ->
          Fig_window.(print ppf (generate ~seed ())));
    };
    {
      name = "fig7";
      doc = "Fig. 7: interval scatter vs model curves.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          Fig7.(
            print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ())));
    };
    {
      name = "fig8";
      doc = "Fig. 8: 100-s traces vs model predictions.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          Fig8.(print ppf (generate ~seed ~count:(batch_count quick) ~jobs ())));
    };
    {
      name = "fig9";
      doc = "Fig. 9: average error on 1-hour traces.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          Fig9.(
            print ppf ~title:"Fig. 9: Comparison of the models for 1-h traces"
              (generate ~seed ~duration:(hour_duration quick) ~jobs ())));
    };
    {
      name = "fig10";
      doc = "Fig. 10: average error on 100-s traces.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          Fig10.(print ppf (generate ~seed ~count:(batch_count quick) ~jobs ())));
    };
    {
      name = "fig11";
      doc = "Fig. 11 / Sec. IV: modem correlation study.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          let duration = if quick then 900. else 3600. in
          Fig11.(
            print ppf
              (generate ~seed ~wide_duration:duration ~modem_duration:duration
                 ~jobs ())));
    };
    {
      name = "fig12";
      doc = "Fig. 12: full model vs numerical Markov model.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          let mc_duration = if quick then 5_000. else 30_000. in
          Fig12.(print ppf (generate ~seed ~mc_duration ~jobs ())));
    };
    {
      name = "fig13";
      doc =
        "Fig. 13: throughput vs send rate.  Ignores --seed, --quick and \
         --jobs.";
      run = (fun ~seed:_ ~quick:_ ~jobs:_ ppf -> Fig13.(print ppf (generate ())));
    };
    {
      name = "validate";
      doc = "Model vs the packet-level Reno simulator across loss rates.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          let duration = if quick then 300. else 900. in
          Validation.(print ppf (generate ~seed ~duration ~jobs ())));
    };
    {
      name = "convergence";
      doc =
        "Streaming estimation over the Table II paths: when do the live \
         estimates settle to the final summary?";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          Convergence.(
            print ppf (generate ~seed ~duration:(hour_duration quick) ~jobs ())));
    };
    {
      name = "windowdist";
      doc =
        "Stationary window distribution: Markov chain vs simulated \
         per-round histogram.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          let rounds = if quick then 50_000 else 200_000 in
          Window_dist.(print ppf (generate ~seed ~rounds ~jobs ())));
    };
    {
      name = "sensitivity";
      doc =
        "Input elasticities of the full model.  Ignores --seed, --quick and \
         --jobs.";
      run =
        (fun ~seed:_ ~quick:_ ~jobs:_ ppf ->
          Sensitivity.(print ppf (elasticities ())));
    };
    {
      name = "fairness";
      doc = "TCP-friendliness of an equation-paced flow at a shared bottleneck.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          let scenarios =
            Fairness.(if quick then quick_scenarios else default_scenarios)
          in
          Fairness.(print ppf (generate ~seed ~scenarios ~jobs ())));
    };
    {
      name = "meanfield-xval";
      doc =
        "Mean-field cross-validation: N = 2..64 reno flows through the \
         packet-level shared bottleneck vs the same scenarios under the \
         mean-field solver, with per-flow goodput relative errors.";
      run =
        (fun ~seed ~quick ~jobs ppf ->
          let scenarios =
            Meanfield_xval.(if quick then quick_scenarios else default_scenarios)
          in
          Meanfield_xval.(print ppf (generate ~seed ~scenarios ~jobs ())));
    };
    {
      name = "redstability";
      doc =
        "RED stability boundary: stable vs oscillating mean-field regimes \
         over an EWMA-weight x capacity x population sweep.  Ignores --seed.";
      run =
        (fun ~seed:_ ~quick ~jobs ppf ->
          let cells =
            Red_stability.(if quick then quick_cells else default_cells)
          in
          Red_stability.(print ppf (generate ~cells ~jobs ())));
    };
  ]
