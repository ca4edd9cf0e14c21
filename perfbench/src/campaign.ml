(* Workload [campaign]: the paper's measurement campaign in simulation.

   End to end, each pass runs Table II, Fig. 10 (every profiled path), the
   packet-level validation sweep and the RED stability quick cells, each
   [generate] + [print] into a buffer.  Calibration stays in the measured
   phase, because every user run pays it.  Set-up computes the four
   artifacts once as the reference every pass must match byte for byte.

   The passes run at one domain.  At two domains, on a shared two-core
   machine, 2 of 10 runs took twice as long throughout while the
   one-domain set-up of the same runs did not; no statistic over passes
   can steady that.  The two-domain path still
   runs: once after the measured phase, untimed, where its output must
   equal the one-domain reference (the repository's jobs-invariance
   contract), and in the traced pass, which measures the pool.

   The traced pass rebuilds the four artifacts from the layers below
   ([Workload.calibrate], [Round_sim.run], [Connection.run],
   [Analyzer.summarize], the scalar models, [Solver]/[Dynamics],
   [Pftk_parallel]) with a span around every call, and prints them with
   the artifacts' own printers; its output must equal the end-to-end
   output byte for byte. *)

module Path_profile = Pftk_dataset.Path_profile
module Workload = Pftk_dataset.Workload
module Analyzer = Pftk_trace.Analyzer
module Recorder = Pftk_trace.Recorder
module Round_sim = Pftk_tcp.Round_sim
module Connection = Pftk_tcp.Connection
module Rng = Pftk_stats.Rng
module Error_metrics = Pftk_stats.Error_metrics
module Solver = Pftk_meanfield.Solver
module Dynamics = Pftk_meanfield.Dynamics
module Queue_law = Pftk_meanfield.Queue_law
module E = Pftk_experiments
open Pftk_core
open Common

(* Pool size of the invariance check and of the traced pass. *)
let jobs = 2

(* The quick sizes of the pftk artifact commands: 600-s "hour" traces,
   30 connections of 100 s per Fig. 10 path, 300-s validation
   connections, the four RED quick cells. *)
let hour_duration = 600.
let batch_count = 30
let batch_duration = 100.
let validation_duration = 300.
let validation_wm = 32
let validation_grid () = Sweep.logspace ~lo:0.002 ~hi:0.15 ~n:8
let cells = E.Red_stability.quick_cells

(* Fig. 10 covers every profiled path plus the Fig. 8-only pairs. *)
let fig10_paths =
  Path_profile.all
  @ List.filter
      (fun (p : Path_profile.t) -> p.Path_profile.receiver <> "p5")
      Path_profile.extras

type seeds = { table2 : int64; fig10 : int64; validation : int64 }

let seeds seed =
  let s = Int64.of_int seed in
  { table2 = Int64.add 17L s; fig10 = Int64.add 37L s; validation = Int64.add 83L s }

(* Ops are simulated connections and meanfield cells. *)
let artifacts =
  [
    ("table2", List.length Path_profile.all);
    ("fig10", List.length fig10_paths * batch_count);
    ("validation", Array.length (validation_grid ()));
    ("redstability", List.length cells);
  ]

let render print v =
  let b = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer b in
  print ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let end_to_end ~jobs s = function
  | "table2" ->
      render E.Table2.print
        (E.Table2.generate ~seed:s.table2 ~duration:hour_duration ~jobs ())
  | "fig10" ->
      render E.Fig10.print
        (E.Fig10.generate ~seed:s.fig10 ~count:batch_count ~jobs ())
  | "validation" ->
      render E.Validation.print
        (E.Validation.generate ~seed:s.validation ~duration:validation_duration
           ~wm:validation_wm ~jobs ())
  | _ -> render E.Red_stability.print (E.Red_stability.generate ~cells ~jobs ())

(* --- the traced rebuild ------------------------------------------------- *)

let span = Span.with_span

let region f =
  span "parallel.region" (fun () ->
      let parent = Span.current () in
      f parent)

let task ~parent ~op f = span ~parent ~op ~count:(fun _ -> 1) "experiments.task" f

let calibrate ~seed profile =
  span "dataset.calibrate" (fun () -> Workload.calibrate ~seed profile)

(* Workload.run_for after calibration: the recorder is buffered, so
   recording stays inside this span. *)
let simulate ~seed ~duration profile cal =
  span "tcp.round_sim" ~count:Recorder.events_seen (fun () ->
      let rng = Rng.create ~seed:(Int64.add seed 1L) () in
      let recorder = Recorder.create () in
      ignore
        (Round_sim.run ~seed ~recorder ~duration
           ~loss:(Workload.loss_process rng cal)
           (Workload.sim_config profile));
      recorder)

let analyze recorder =
  span "trace.analyzer"
    ~count:(fun _ -> Recorder.length recorder)
    (fun () -> Analyzer.summarize recorder)

let predict ~rtt ~t0 ~wm p =
  span "core.model"
    ~count:(fun _ -> 3)
    (fun () ->
      let params = Params.make ~rtt ~t0 ~wm () in
      ( Full_model.send_rate params p,
        Approx_model.send_rate params p,
        Tdonly.send_rate ~rtt ~b:2 p ))

let table2 s =
  region (fun parent ->
      Pftk_parallel.mapi ~jobs
        (fun i profile ->
          task ~parent ~op:i (fun () ->
              let seed = Int64.add s.table2 (Int64.of_int i) in
              let cal = calibrate ~seed profile in
              let recorder =
                simulate ~seed ~duration:hour_duration profile cal
              in
              { E.Table2.profile; summary = analyze recorder }))
        Path_profile.all)

let fig10_entry ~seed (profile : Path_profile.t) =
  let cal = calibrate ~seed profile in
  let observations =
    List.init batch_count Fun.id
    |> List.filter_map (fun j ->
           let recorder =
             simulate
               ~seed:(Int64.add seed (Int64.of_int (100 + j)))
               ~duration:batch_duration profile cal
           in
           let s = analyze recorder in
           if s.Analyzer.loss_indications = 0 || s.Analyzer.packets_sent = 0
           then None
           else begin
             let rtt =
               if s.Analyzer.avg_rtt > 0. then s.Analyzer.avg_rtt
               else profile.Path_profile.rtt
             in
             let t0 =
               if s.Analyzer.avg_t0 > 0. then s.Analyzer.avg_t0
               else profile.Path_profile.t0
             in
             let full, approx, td =
               predict ~rtt ~t0 ~wm:profile.Path_profile.wm s.Analyzer.observed_p
             in
             Some
               ( float_of_int s.Analyzer.packets_sent,
                 full *. batch_duration,
                 approx *. batch_duration,
                 td *. batch_duration )
           end)
  in
  if observations = [] then None
  else begin
    let pick f = Array.of_list (List.map f observations) in
    let observed = pick (fun (o, _, _, _) -> o) in
    let error predicted = Error_metrics.average_error ~predicted ~observed in
    Some
      {
        E.Fig9.label = Path_profile.label profile;
        full_error = error (pick (fun (_, f, _, _) -> f));
        approx_error = error (pick (fun (_, _, a, _) -> a));
        td_only_error = error (pick (fun (_, _, _, t) -> t));
        intervals_used = List.length observations;
      }
  end

let fig10 s =
  region (fun parent ->
      Pftk_parallel.mapi ~jobs
        (fun i profile ->
          task ~parent ~op:i (fun () ->
              fig10_entry ~seed:(Int64.add s.fig10 (Int64.of_int (1000 * i))) profile))
        fig10_paths)
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> Float.compare a.E.Fig9.td_only_error b.E.Fig9.td_only_error)

let validation_point ~seed injected_p =
  let rng = Rng.create ~seed () in
  let scenario =
    {
      Connection.default_scenario with
      Connection.forward_bandwidth = 1_250_000.;
      reverse_bandwidth = 1_250_000.;
      forward_delay = 0.05;
      reverse_delay = 0.05;
      buffer = Pftk_netsim.Queue_discipline.drop_tail ~capacity:100;
      data_loss = Some (Pftk_loss.Loss_process.bernoulli rng ~p:injected_p);
      sender = { Pftk_tcp.Reno.default_config with wm = validation_wm };
    }
  in
  let result =
    span "tcp.connection"
      ~count:(fun r -> Recorder.events_seen r.Connection.recorder)
      (fun () -> Connection.run ~seed ~duration:validation_duration scenario)
  in
  let s = analyze result.Connection.recorder in
  if s.Analyzer.loss_indications = 0 || s.Analyzer.avg_rtt <= 0. then None
  else begin
    let rtt = s.Analyzer.avg_rtt in
    let t0 = if s.Analyzer.avg_t0 > 0. then s.Analyzer.avg_t0 else 4. *. rtt in
    let p = s.Analyzer.observed_p in
    let full, approx, td_only = predict ~rtt ~t0 ~wm:validation_wm p in
    Some
      {
        E.Validation.injected_p;
        observed_p = p;
        avg_rtt = rtt;
        avg_t0 = t0;
        measured = result.Connection.send_rate;
        full;
        approx;
        td_only;
      }
  end

let validation s =
  let points =
    region (fun parent ->
        Array.to_list (validation_grid ())
        |> Pftk_parallel.mapi ~jobs (fun i p ->
               task ~parent ~op:i (fun () ->
                   validation_point ~seed:(Int64.add s.validation (Int64.of_int i)) p)))
    |> List.filter_map Fun.id
  in
  let observed = Array.of_list (List.map (fun pt -> pt.E.Validation.measured) points) in
  let error pick =
    Error_metrics.average_error
      ~predicted:(Array.of_list (List.map pick points))
      ~observed
  in
  {
    E.Validation.points;
    full_error = error (fun pt -> pt.E.Validation.full);
    approx_error = error (fun pt -> pt.E.Validation.approx);
    td_only_error = error (fun pt -> pt.E.Validation.td_only);
  }

(* Dynamics.run solves the equilibrium itself; the benchmark solves the
   same config once more in its own span, so the solver's cost can be
   taken out of the dynamics span. *)
let red_cell (c : E.Red_stability.cell) =
  let law =
    Queue_law.red ~weight:c.weight ~max_probability:c.max_probability
      ~capacity:c.buffer ~min_threshold:c.min_threshold
      ~max_threshold:c.max_threshold ()
  in
  let solver =
    Solver.default ~flows:c.flows ~capacity:c.capacity ~base_rtt:c.base_rtt ~law
  in
  ignore
    (span "meanfield.solve"
       ~count:(fun e -> e.Solver.iterations)
       (fun () -> Solver.solve solver));
  let dynamics =
    span "meanfield.dynamics"
      ~count:(fun d -> d.Dynamics.steps)
      (fun () -> Dynamics.run (Dynamics.default solver))
  in
  {
    E.Red_stability.cell = c;
    equilibrium = dynamics.Dynamics.equilibrium;
    dynamics;
    stable =
      (match dynamics.Dynamics.verdict with
      | Dynamics.Stable -> true
      | Dynamics.Oscillating _ -> false);
  }

let red_stability () =
  region (fun parent ->
      Pftk_parallel.mapi ~jobs (fun i c -> task ~parent ~op:i (fun () -> red_cell c)) cells)

let print_span print v = span "experiments.print" (fun () -> render print v)

let rebuild s = function
  | "table2" -> print_span E.Table2.print (table2 s)
  | "fig10" -> print_span E.Fig10.print (fig10 s)
  | "validation" -> print_span E.Validation.print (validation s)
  | _ -> print_span E.Red_stability.print (red_stability ())

(* --- per-layer metrics from one traced pass ----------------------------- *)

let layers ~share spans _outputs =
  let named n = Span.named n spans in
  let busy n = Span.total_duration (named n) in
  let count n = fi (Span.total_count (named n)) in
  let words n = Span.total_words (named n) in
  let ns n = 1e9 *. per (busy n) (count n) in
  let regions = named "parallel.region" in
  let tasks = named "experiments.task" in
  let tail_idle =
    List.fold_left
      (fun acc (r : Span.t) ->
        let mine = List.filter (fun (t : Span.t) -> t.parent = r.id) tasks in
        let domains = List.sort_uniq compare (List.map (fun (t : Span.t) -> t.domain) mine) in
        let last d =
          List.fold_left
            (fun m (t : Span.t) -> if t.domain = d then max m t.stop else m)
            0L mine
        in
        match domains with
        | [] -> acc
        | d :: ds ->
            let first_idle = List.fold_left (fun m d -> min m (last d)) (last d) ds in
            acc +. Span.seconds_between first_idle r.stop)
      0. regions
  in
  [
    ("dataset.calibrate_s", share "dataset.calibrate");
    ("tcp.round_sim_s", share "tcp.round_sim");
    ("tcp.round_sim_events", count "tcp.round_sim");
    ("tcp.round_sim_ns_per_event", ns "tcp.round_sim");
    ("tcp.round_sim_words_per_event", per (words "tcp.round_sim") (count "tcp.round_sim"));
    ("tcp.connection_s", share "tcp.connection");
    ("tcp.connection_events", count "tcp.connection");
    ("tcp.connection_ns_per_event", ns "tcp.connection");
    ("trace.analyzer_s", share "trace.analyzer");
    ("trace.analyzer_ns_per_event", ns "trace.analyzer");
    ("core.model_s", share "core.model");
    ("core.model_evals", count "core.model");
    ("meanfield.solve_s", share "meanfield.solve");
    ("meanfield.solve_iterations", count "meanfield.solve");
    ("meanfield.ns_per_iteration", ns "meanfield.solve");
    ( "meanfield.dynamics_self_s",
      Float.max 0. (share "meanfield.dynamics" -. share "meanfield.solve") );
    ("meanfield.dynamics_steps", count "meanfield.dynamics");
    ("parallel.tasks", fi (List.length tasks));
    ( "parallel.busy_ratio",
      per (Span.total_duration tasks) (fi jobs *. Span.total_duration regions) );
    ("parallel.tail_idle_s", tail_idle);
    ("experiments.print_s", share "experiments.print");
  ]

(* Work and allocation counts a later change may rest a claim on: they
   must repeat exactly for the same seed. *)
let counted =
  [
    "tcp.round_sim"; "tcp.connection"; "trace.analyzer"; "core.model";
    "meanfield.solve"; "meanfield.dynamics"; "experiments.task";
  ]

(* --- the workload --------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let s = seeds seed in
  let reference () = List.map (fun (a, _) -> end_to_end ~jobs:1 s a) artifacts in
  let problems = ref [] in
  let problem msg = if not (List.mem msg !problems) then problems := msg :: !problems in
  let setup_s, setup_uncorrected_s, expected =
    let outputs = ref [] in
    let t, raw, v = setup (fun () -> let r = reference () in outputs := r :: !outputs; r) in
    if List.exists (fun o -> o <> v) !outputs then
      problem "campaign: the reference differs between set-ups";
    (t, raw, v)
  in
  let attempted = ref 0 and failed = ref 0 in
  let times = Hashtbl.create 8 in
  let pass lat =
    let t0 = now () in
    let good = ref 0 in
    List.iter2
      (fun (a, ops) want ->
        let t = now () in
        let got = end_to_end ~jobs:1 s a in
        let t1 = now () in
        Hashtbl.replace times a ((t1 -. t) :: Option.value ~default:[] (Hashtbl.find_opt times a));
        attempted := !attempted + ops;
        if got <> want then begin
          failed := !failed + ops;
          problem (a ^ ": output differs from the set-up reference")
        end
        else begin
          good := !good + ops;
          Lat.add lat ~weight:ops (t1 -. t0)
        end)
      artifacts expected;
    !good
  in
  let passes = measure ~seconds pass in
  List.iter2
    (fun (a, ops) want ->
      attempted := !attempted + ops;
      if end_to_end ~jobs s a <> want then begin
        failed := !failed + ops;
        problem (Printf.sprintf "%s: jobs=%d output differs from jobs=1" a jobs)
      end)
    artifacts expected;
  let layers, counts, attribution =
    if not trace then ([], [], [])
    else
      traced ~problem ~counted ~layers
        ~check:(fun outputs ->
          if outputs <> expected then
            problem "campaign: traced rebuild output differs from the end-to-end output")
        (fun () ->
          List.map
            (fun (a, _) -> Span.with_span "experiments.artifact" (fun () -> rebuild s a))
            artifacts)
  in
  let ops_total = List.fold_left (fun a (_, o) -> a + o) 0 artifacts in
  let med a = median (Option.value ~default:[] (Hashtbl.find_opt times a)) in
  {
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    setup_s;
    setup_uncorrected_s;
    passes;
    latency_passes = passes;
    detail =
      [
        ("table2_s", med "table2", "s");
        ("fig10_s", med "fig10", "s");
        ("validation_s", med "validation", "s");
        ("redstability_s", med "redstability", "s");
        ("pass_s", pass_wall passes, "s");
        ("passes", fi (List.length passes), "count");
      ];
    sizes =
      [
        ("jobs", "1");
        ("invariance_check_jobs", string_of_int jobs);
        ("traced_jobs", string_of_int jobs);
        ("table2_paths", string_of_int (List.length Path_profile.all));
        ("table2_duration_s", Printf.sprintf "%g" hour_duration);
        ("fig10_paths", string_of_int (List.length fig10_paths));
        ("fig10_connections_per_path", string_of_int batch_count);
        ("validation_points", string_of_int (Array.length (validation_grid ())));
        ("validation_duration_s", Printf.sprintf "%g" validation_duration);
        ("redstability_cells", string_of_int (List.length cells));
        ("ops_per_pass", string_of_int ops_total);
      ];
    layers;
    counts;
    attribution;
  }
