(* Tests for pftk_experiments: every table/figure driver runs in quick mode
   and its output must exhibit the paper's qualitative shape — who wins, in
   which direction, and by roughly what kind of margin. *)

open Pftk_experiments
module Path_profile = Pftk_dataset.Path_profile

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* --- Table II ---------------------------------------------------------------- *)

let table2_rows = lazy (Table2.generate ~seed:101L ~duration:600. ())

let test_table2_all_paths () =
  Alcotest.(check int) "24 rows" 24 (List.length (Lazy.force table2_rows))

let test_table2_timeouts_majority () =
  (* The paper's headline observation must survive simulation: timeouts are
     the majority of loss indications in most traces. *)
  let rows = Lazy.force table2_rows in
  let majority =
    List.filter (fun r -> Table2.timeout_fraction r > 0.5) rows
  in
  Alcotest.(check bool) "majority-timeout traces >= 16/24" true
    (List.length majority >= 16)

let test_table2_loss_rates_track_published () =
  let rows = Lazy.force table2_rows in
  let ok =
    List.filter
      (fun r ->
        match r.Table2.profile.Path_profile.table2 with
        | None -> true
        | Some row ->
            let target = Pftk_dataset.Table2_data.observed_p row in
            let sim = r.Table2.summary.Pftk_trace.Analyzer.observed_p in
            Float.abs (sim -. target) /. target < 0.5)
      rows
  in
  Alcotest.(check bool) "most rows within 50% of published p" true
    (List.length ok >= 18)

let test_table2_backoff_present () =
  (* Exponential backoff (T1+) occurs with significant frequency overall. *)
  let rows = Lazy.force table2_rows in
  let deep =
    List.fold_left
      (fun acc r ->
        acc
        + Array.fold_left ( + ) 0
            (Array.sub r.Table2.summary.Pftk_trace.Analyzer.to_by_backoff 1 5))
      0 rows
  in
  Alcotest.(check bool) "multi-timeout sequences occur" true (deep > 20)

let test_table2_rtt_t0_columns () =
  (* The analyzer's measured RTT and T0 must sit near the profile values
     they were simulated with. *)
  List.iter
    (fun r ->
      let profile = r.Table2.profile in
      let s = r.Table2.summary in
      Alcotest.(check bool)
        (Path_profile.label profile ^ " rtt")
        true
        (Float.abs (s.Pftk_trace.Analyzer.avg_rtt -. profile.Path_profile.rtt)
         /. profile.Path_profile.rtt
        < 0.1);
      Alcotest.(check bool)
        (Path_profile.label profile ^ " t0")
        true
        (Float.abs (s.Pftk_trace.Analyzer.avg_t0 -. profile.Path_profile.t0)
         /. profile.Path_profile.t0
        < 0.1))
    (Lazy.force table2_rows)

(* --- Fig. 7 ------------------------------------------------------------------------ *)

let fig7_panel =
  lazy
    (Fig7.panel_for ~seed:102L ~duration:1200.
       (List.hd Path_profile.fig7_paths))

let test_fig7_points () =
  let panel = Lazy.force fig7_panel in
  Alcotest.(check bool) "has interval points" true
    (List.length panel.Fig7.points >= 10);
  List.iter
    (fun pt ->
      Alcotest.(check bool) "p in [0,1)" true
        (pt.Fig7.p >= 0. && pt.Fig7.p < 1.))
    panel.Fig7.points

let test_fig7_curves_decreasing () =
  let panel = Lazy.force fig7_panel in
  let decreasing curve =
    let rec ok = function
      | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-9 && ok rest
      | _ -> true
    in
    ok curve
  in
  Alcotest.(check bool) "full curve decreasing" true
    (decreasing panel.Fig7.full_curve);
  Alcotest.(check bool) "TD-only curve decreasing" true
    (decreasing panel.Fig7.td_only_curve)

let test_fig7_td_only_overestimates () =
  (* At high loss frequencies the TD-only curve sits far above the full
     model -- the figure's visual message. *)
  let panel = Lazy.force fig7_panel in
  let at curve target =
    List.fold_left
      (fun best (p, v) ->
        match best with
        | Some (bp, _) when Float.abs (p -. target) >= Float.abs (bp -. target) ->
            best
        | _ -> Some (p, v))
      None curve
    |> Option.get |> snd
  in
  Alcotest.(check bool) "TD-only above full at p=0.2" true
    (at panel.Fig7.td_only_curve 0.2 > 1.5 *. at panel.Fig7.full_curve 0.2)

let test_fig7_window_cap_visible () =
  (* manic-baskerville has Wm = 6: at tiny p the full model flattens at
     Wm/RTT * 100 s while TD-only keeps growing. *)
  let panel = Lazy.force fig7_panel in
  match (panel.Fig7.full_curve, panel.Fig7.td_only_curve) with
  | (p1, full1) :: _, (_, td1) :: _ ->
      Alcotest.(check bool) "low-p full capped below TD-only" true
        (p1 < 1e-3 && full1 < td1)
  | _ -> Alcotest.fail "curves empty"

(* --- Fig. 8 ------------------------------------------------------------------------- *)

let fig8_panel =
  lazy (Fig8.panel_for ~seed:103L ~count:30 (List.hd Path_profile.fig8_paths))

let test_fig8_samples () =
  let panel = Lazy.force fig8_panel in
  Alcotest.(check bool) "most traces usable" true
    (List.length panel.Fig8.samples >= 20);
  List.iter
    (fun s ->
      Alcotest.(check bool) "predictions positive" true
        (s.Fig8.full > 0. && s.Fig8.td_only > 0. && s.Fig8.measured > 0.))
    panel.Fig8.samples

let test_fig8_full_beats_td_only () =
  let full_err, td_err = Fig8.average_errors (Lazy.force fig8_panel) in
  Alcotest.(check bool) "proposed model more accurate" true (full_err < td_err)

let test_fig8_td_only_overestimates () =
  (* TD-only should overestimate on average (its signature failure). *)
  let panel = Lazy.force fig8_panel in
  let signed =
    Pftk_stats.Error_metrics.mean_signed_error
      ~predicted:
        (Array.of_list (List.map (fun s -> s.Fig8.td_only) panel.Fig8.samples))
      ~observed:
        (Array.of_list (List.map (fun s -> s.Fig8.measured) panel.Fig8.samples))
  in
  Alcotest.(check bool) "TD-only biased high" true (signed > 0.)

(* --- Figs. 9 and 10 ------------------------------------------------------------------- *)

let test_fig9_shape () =
  let entries = Fig9.generate ~seed:104L ~duration:600. () in
  Alcotest.(check bool) "most paths usable" true (List.length entries >= 20);
  (* Sorted by TD-only error. *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Fig9.td_only_error <= b.Fig9.td_only_error && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted entries);
  (* The paper's conclusion: the proposed model is the better estimator in
     most cases. *)
  let wins =
    List.filter (fun e -> e.Fig9.full_error < e.Fig9.td_only_error) entries
  in
  Alcotest.(check bool) "full model wins on >= 2/3 of traces" true
    (3 * List.length wins >= 2 * List.length entries)

let test_fig10_shape () =
  let entries = Fig10.generate ~seed:105L ~count:20 () in
  Alcotest.(check bool) "entries exist" true (List.length entries >= 4);
  let wins =
    List.filter (fun e -> e.Fig9.full_error < e.Fig9.td_only_error) entries
  in
  Alcotest.(check bool) "full model wins on most pairs" true
    (2 * List.length wins > List.length entries)

(* --- Fig. 11 / Sec. IV ------------------------------------------------------------------- *)

let test_fig11_correlation_contrast () =
  let wide = Fig11.run_wide_area ~seed:106L ~duration:600. () in
  let modem = Fig11.run_modem ~seed:107L ~duration:1200. () in
  Alcotest.(check bool)
    (Printf.sprintf "wide-area |corr| small (%.2f)" wide.Fig11.correlation)
    true
    (Float.abs wide.Fig11.correlation < 0.45);
  Alcotest.(check bool)
    (Printf.sprintf "modem corr large (%.2f)" modem.Fig11.correlation)
    true
    (modem.Fig11.correlation > 0.6);
  Alcotest.(check bool) "modem correlation dominates" true
    (modem.Fig11.correlation > Float.abs wide.Fig11.correlation +. 0.2)

let test_fig11_model_fails_on_modem () =
  (* Sec. IV: the model "fails to match the observed data" behind the
     modem, while remaining a good estimator on the wide-area path. *)
  let modem = Fig11.run_modem ~seed:108L ~duration:2400. () in
  let wide = Fig11.run_wide_area ~seed:108L ~duration:1200. () in
  let mismatch r =
    Float.abs ((r.Fig11.predicted_rate /. r.Fig11.measured_rate) -. 1.)
  in
  Alcotest.(check bool)
    (Printf.sprintf "modem mismatch large (%.2f)" (mismatch modem))
    true
    (mismatch modem > 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "wide-area mismatch smaller (%.2f vs %.2f)"
       (mismatch wide) (mismatch modem))
    true
    (mismatch wide < mismatch modem)

(* --- Fig. 12 -------------------------------------------------------------------------------- *)

let fig12 = lazy (Fig12.generate ~seed:109L ~mc_duration:4000. ())

let test_fig12_markov_close () =
  let r = Lazy.force fig12 in
  Alcotest.(check bool)
    (Printf.sprintf "max gap %.2f < 0.5" r.Fig12.max_gap)
    true (r.Fig12.max_gap < 0.5)

let test_fig12_series_complete () =
  let r = Lazy.force fig12 in
  let n = List.length r.Fig12.full.Fig12.points in
  Alcotest.(check bool) "full series populated" true (n >= 25);
  Alcotest.(check int) "markov series same length" n
    (List.length r.Fig12.markov.Fig12.points)

let test_fig12_monte_carlo_between () =
  (* The Monte-Carlo should land in the neighborhood of both analytic
     curves (within 50% of the full model everywhere on the grid). *)
  let r = Lazy.force fig12 in
  List.iter2
    (fun (p, full) (_, mc) ->
      Alcotest.(check bool)
        (Printf.sprintf "mc near full at p=%g" p)
        true
        (Float.abs (mc -. full) /. full < 0.5))
    r.Fig12.full.Fig12.points r.Fig12.monte_carlo.Fig12.points

(* --- Fig. 13 -------------------------------------------------------------------------------- *)

let test_fig13_throughput_below_send () =
  let r = Fig13.generate () in
  List.iter2
    (fun (p, b) (_, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "T <= B at p=%g" p)
        true (t <= b +. 1e-9))
    r.Fig13.send_rate r.Fig13.throughput

let test_fig13_gap_widens () =
  let r = Fig13.generate () in
  match (r.Fig13.delivery_ratio, List.rev r.Fig13.delivery_ratio) with
  | (_, first) :: _, (_, last) :: _ ->
      Alcotest.(check bool) "delivery ratio shrinks with p" true (last < first)
  | _ -> Alcotest.fail "empty series"

(* --- Figs. 1/3/5 ------------------------------------------------------------------------------ *)

let test_fig_window_regimes () =
  let paths = Fig_window.generate ~seed:110L () in
  Alcotest.(check int) "three sample paths" 3 (List.length paths);
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (sp.Fig_window.label ^ " windows >= 1")
        true
        (Array.for_all (fun w -> w >= 1.) sp.Fig_window.windows))
    paths;
  (* The window-limited path must hit and respect its cap of 12. *)
  let limited = List.nth paths 2 in
  Alcotest.(check bool) "capped at 12" true
    (Array.for_all (fun w -> w <= 12.) limited.Fig_window.windows);
  Alcotest.(check bool) "reaches the cap" true
    (Array.exists (fun w -> w >= 12.) limited.Fig_window.windows)

let test_fig_window_sawtooth () =
  (* The TD-only path halves (roughly) at losses: look for at least one
     drop by a factor close to 2 and subsequent linear growth. *)
  let paths = Fig_window.generate ~seed:111L () in
  let td = List.hd paths in
  let w = td.Fig_window.windows in
  let halvings = ref 0 in
  for i = 0 to Array.length w - 2 do
    if w.(i + 1) < 0.7 *. w.(i) && w.(i + 1) >= (w.(i) /. 2.) -. 1.5 then
      incr halvings
  done;
  Alcotest.(check bool) "sawtooth halvings present" true (!halvings >= 2)

(* --- Table I ------------------------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_table1_prints () =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Table1.print ppf;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions manic" true (contains out "manic");
  Alcotest.(check bool) "mentions att.com" true (contains out "att.com")

(* --- Registry: one list drives every front end ------------------------------------------ *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Runs the CLI and returns its stdout, failing the test on a nonzero
   exit.  Stdout goes through a temporary file, removed afterwards. *)
let run_pftk args =
  let out = Filename.temp_file "pftk" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "../bin/pftk.exe %s 1>%s 2>/dev/null" args
             (Filename.quote out))
      in
      Alcotest.(check int) (Printf.sprintf "pftk %s exits 0" args) 0 code;
      read_file out)

let all_quick_j4 = lazy (run_pftk "all --quick --jobs 4")

let test_all_jobs_identity () =
  Alcotest.(check string)
    "all --quick byte-identical across --jobs"
    (run_pftk "all --quick --jobs 1")
    (Lazy.force all_quick_j4)

(* `pftk all` is the registry entries' subcommands back to back: no
   artifact has a second, drifting parameter set in one of them. *)
let test_all_is_concatenation () =
  let parts =
    List.map
      (fun (e : Registry.entry) -> run_pftk (e.name ^ " --quick --jobs 4"))
      Registry.all
  in
  Alcotest.(check string) "all = concatenated subcommands"
    (String.concat "" parts) (Lazy.force all_quick_j4)

let () =
  Alcotest.run "pftk_experiments"
    [
      ( "table2",
        [
          slow_case "all paths" test_table2_all_paths;
          slow_case "timeouts majority" test_table2_timeouts_majority;
          slow_case "loss rates track published" test_table2_loss_rates_track_published;
          slow_case "backoff present" test_table2_backoff_present;
          slow_case "RTT/T0 columns" test_table2_rtt_t0_columns;
        ] );
      ( "fig7",
        [
          slow_case "points" test_fig7_points;
          slow_case "curves decreasing" test_fig7_curves_decreasing;
          slow_case "TD-only overestimates" test_fig7_td_only_overestimates;
          slow_case "window cap visible" test_fig7_window_cap_visible;
        ] );
      ( "fig8",
        [
          slow_case "samples" test_fig8_samples;
          slow_case "full beats TD-only" test_fig8_full_beats_td_only;
          slow_case "TD-only biased high" test_fig8_td_only_overestimates;
        ] );
      ( "fig9-10",
        [
          slow_case "fig9 shape" test_fig9_shape;
          slow_case "fig10 shape" test_fig10_shape;
        ] );
      ( "fig11",
        [
          slow_case "correlation contrast" test_fig11_correlation_contrast;
          slow_case "model fails on modem" test_fig11_model_fails_on_modem;
        ] );
      ( "fig12",
        [
          slow_case "markov close" test_fig12_markov_close;
          slow_case "series complete" test_fig12_series_complete;
          slow_case "monte carlo near" test_fig12_monte_carlo_between;
        ] );
      ( "fig13",
        [
          case "T <= B" test_fig13_throughput_below_send;
          case "gap widens" test_fig13_gap_widens;
        ] );
      ( "fig-window",
        [
          case "regimes" test_fig_window_regimes;
          case "sawtooth" test_fig_window_sawtooth;
        ] );
      ("table1", [ case "prints hosts" test_table1_prints ]);
      ( "registry",
        [
          slow_case "all identical across jobs" test_all_jobs_identity;
          slow_case "all is the subcommands in order" test_all_is_concatenation;
        ] );
    ]
