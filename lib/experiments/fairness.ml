module SB = Pftk_tcp.Shared_bottleneck

type scenario = {
  label : string;
  reno_flows : int;
  tfrc_flows : int;
  duration : float;
}

type outcome = {
  scenario : scenario;
  result : SB.result;
  mean_reno_goodput : float;
  mean_tfrc_goodput : float;
  friendliness_ratio : float;
}

let default_scenarios =
  [
    { label = "3 reno (baseline)"; reno_flows = 3; tfrc_flows = 0; duration = 300. };
    { label = "3 reno + 1 tfrc"; reno_flows = 3; tfrc_flows = 1; duration = 300. };
    { label = "2 reno + 2 tfrc"; reno_flows = 2; tfrc_flows = 2; duration = 300. };
  ]

let quick_scenarios =
  [ { label = "3 reno + 1 tfrc"; reno_flows = 3; tfrc_flows = 1; duration = 60. } ]

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let evaluate ?(seed = 59L) scenario =
  let specs =
    List.init scenario.reno_flows (fun i -> SB.reno (Printf.sprintf "reno-%d" (i + 1)))
    @ List.init scenario.tfrc_flows (fun i ->
          SB.tfrc (Printf.sprintf "tfrc-%d" (i + 1)))
  in
  let result = SB.run ~seed ~duration:scenario.duration specs in
  let goodputs label =
    List.filter_map
      (fun f -> if f.SB.kind_label = label then Some f.SB.goodput else None)
      result.SB.flows
  in
  let reno = mean (goodputs "reno") and tfrc = mean (goodputs "tfrc") in
  {
    scenario;
    result;
    mean_reno_goodput = reno;
    mean_tfrc_goodput = tfrc;
    friendliness_ratio = (if reno > 0. && tfrc > 0. then tfrc /. reno else 0.);
  }

let generate ?(seed = 59L) ?(scenarios = default_scenarios) ?(jobs = 1) () =
  Pftk_parallel.mapi ~jobs
    (fun i s -> evaluate ~seed:(Int64.add seed (Int64.of_int i)) s)
    scenarios

let print ppf outcomes =
  Report.heading ppf "TCP-friendliness at a shared bottleneck (Sec. I motivation)";
  List.iter
    (fun o ->
      Report.subheading ppf o.scenario.label;
      List.iter
        (fun (f : SB.flow_result) ->
          Format.fprintf ppf "  %-8s %-5s goodput %7.1f pkt/s  loss %.4f@."
            f.SB.name f.SB.kind_label f.SB.goodput f.SB.loss_rate)
        o.result.SB.flows;
      Report.kv ppf "bottleneck utilization"
        (Printf.sprintf "%.3f" o.result.SB.bottleneck_utilization);
      Report.kv ppf "Jain fairness"
        (Printf.sprintf "%.3f" o.result.SB.jain_fairness);
      if o.friendliness_ratio > 0. then
        Report.kv ppf "TFRC/Reno goodput ratio"
          (Printf.sprintf "%.2f" o.friendliness_ratio))
    outcomes
