(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   W is one of campaign, replay, serve (see README.md).
   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 the run also rebuilds the workload from lower-layer
   calls with spans around them and carries the per-layer metrics
   instead.  Lines before it, starting with '#', give the environment
   record and every metric by name and unit; the same record, and the
   spans of a traced run, are written under DIR/results. *)

open Common

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
  ]

(* Every per-layer metric; a workload that does not reach a layer reports
   0 for it. *)
let per_layer =
  [
    ("dataset.calibrate_s", "s");
    ("tcp.round_sim_s", "s");
    ("tcp.round_sim_events", "count");
    ("tcp.round_sim_ns_per_event", "ns");
    ("tcp.round_sim_words_per_event", "words");
    ("tcp.connection_s", "s");
    ("tcp.connection_events", "count");
    ("tcp.connection_ns_per_event", "ns");
    ("trace.analyzer_s", "s");
    ("trace.analyzer_ns_per_event", "ns");
    ("trace.serialize_s", "s");
    ("trace.serialize_ns_per_event", "ns");
    ("trace.serialize_words_per_event", "words");
    ("core.model_s", "s");
    ("core.model_evals", "count");
    ("meanfield.solve_s", "s");
    ("meanfield.solve_iterations", "count");
    ("meanfield.ns_per_iteration", "ns");
    ("meanfield.dynamics_self_s", "s");
    ("meanfield.dynamics_steps", "count");
    ("parallel.tasks", "count");
    ("parallel.busy_ratio", "ratio");
    ("parallel.tail_idle_s", "s");
    ("experiments.print_s", "s");
    ("online.karn_s", "s");
    ("online.karn_ns_per_event", "ns");
    ("online.karn_words_per_event", "words");
    ("online.karn_match_ratio", "ratio");
    ("online.karn_outstanding_end", "count");
    ("online.detector_s", "s");
    ("online.detector_td", "count");
    ("online.detector_to", "count");
    ("online.summary_self_s", "s");
    ("online.predictor_self_s", "s");
    ("online.snapshots", "count");
    ("batch.read_s", "s");
    ("batch.parse_s", "s");
    ("batch.parse_ns_per_line", "ns");
    ("batch.scan_s", "s");
    ("batch.pack_s", "s");
    ("batch.kernel_s", "s");
    ("batch.kernel_ns_per_row", "ns");
    ("batch.format_s", "s");
    ("batch.format_ns_per_line", "ns");
    ("batch.write_s", "s");
    ("batch.words_per_line", "words");
    ("batch.accept_ratio", "ratio");
    ("batch.chunks", "count");
    ("batch.flushes", "count");
    ("batch.rows_per_flush", "count");
    ("batch.flush_ms", "ms");
    ("batch.fill_wait_p50_ms", "ms");
    ("bench.generator_late_p99_ms", "ms");
    ("bench.trace_overhead_ratio", "ratio");
    ("bench.unattributed_ratio", "ratio");
  ]

let workloads = [ "campaign"; "replay"; "serve" ]

let read_first_line_with prefix file =
  match open_in file with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | l when String.length l >= String.length prefix
                 && String.sub l 0 (String.length prefix) = prefix -> (
            match String.index_opt l ':' with
            | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | None -> l)
        | _ -> scan ()
        | exception End_of_file -> "unknown"
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref ".bench_build" and profile = ref "unknown" in
  let git_rev = ref "unknown" and source_digest = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--out", Arg.Set_string out, " directory for inputs and results");
      ("--build-profile", Arg.Set_string profile, " recorded in the environment");
      ("--git-rev", Arg.Set_string git_rev, " recorded in the environment");
      ("--source-digest", Arg.Set_string source_digest, " recorded in the environment");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let work = Filename.concat !out (Filename.concat "work" !workload) in
  let results = Filename.concat !out "results" in
  ensure_dir work;
  ensure_dir results;
  results_prefix :=
    Filename.concat results (Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace);
  let seconds = float_of_int !seconds in
  let r =
    match !workload with
    | "campaign" -> Campaign.run ~seed:!seed ~seconds ~trace:traced
    | "replay" -> Replay.run ~seed:!seed ~seconds ~trace:traced ~dir:work
    | _ -> Serving.run ~seed:!seed ~seconds ~trace:traced ~dir:work
  in
  let peak = peak_rss_mb () in
  let lat = pooled_latency r.latency_passes in
  let e2e_of ~setup_s ~passes ~latency_passes =
    [
      ("setup_s", setup_s);
      ("peak_rss_mb", peak);
      ("ops_per_s", ops_per_s passes);
      ("latency_p50_ms", 1e3 *. latency 0.5 latency_passes);
      ("latency_p99_ms", 1e3 *. latency 0.99 latency_passes);
    ]
  in
  let e2e = e2e_of ~setup_s:r.setup_s ~passes:r.passes ~latency_passes:r.latency_passes in
  let raw =
    e2e_of ~setup_s:r.setup_uncorrected_s ~passes:(uncorrected r.passes)
      ~latency_passes:(uncorrected r.latency_passes)
  in
  let layer name = Option.value ~default:0. (List.assoc_opt name r.layers) in
  let metrics =
    if traced then List.map (fun (n, u) -> (n, layer n, u)) per_layer
    else List.map (fun (n, u) -> (n, List.assoc n e2e, u)) end_to_end
  in
  let correct = r.problems = [] && r.failed = 0 in
  let obj kvs = "{" ^ String.concat "," kvs ^ "}" in
  let kv k v = json_string k ^ ":" ^ v in
  let env =
    obj
      ([
         kv "workload" (json_string !workload);
         kv "seed" (string_of_int !seed);
         kv "seconds" (json_float seconds);
         kv "trace" (string_of_int !trace);
         kv "nproc" (string_of_int (Domain.recommended_domain_count ()));
         kv "cpu" (json_string (read_first_line_with "model name" "/proc/cpuinfo"));
         kv "build_profile" (json_string !profile);
         kv "ocaml" (json_string Sys.ocaml_version);
         kv "git_rev" (json_string !git_rev);
         kv "source_digest" (json_string !source_digest);
       ]
      @ List.map (fun (k, v) -> kv k (json_string v)) r.sizes)
  in
  let metric_json (n, v, u) = kv n (obj [ kv "value" (json_float v); kv "unit" (json_string u) ]) in
  let result =
    obj
      [
        kv "correct" (string_of_bool correct);
        kv "attempted" (string_of_int (max 1 r.attempted));
        kv "failed" (string_of_int r.failed);
        kv "metrics" (obj (List.map metric_json metrics));
      ]
  in
  let samples = lat.Lat.n and beyond = Lat.beyond lat 0.99 in
  let record =
    obj
      [
        kv "env" env;
        kv "result" result;
        kv "end_to_end" (obj (List.map (fun (n, u) -> metric_json (n, List.assoc n e2e, u)) end_to_end));
        kv "failed_ratio" (json_float (per (fi r.failed) (fi (max 1 r.attempted))));
        kv "uncorrected" (obj (List.map (fun (n, u) -> metric_json (n, List.assoc n raw, u)) end_to_end));
        kv "pass_walls_s" ("[" ^ String.concat "," (List.map (fun p -> json_float p.wall) r.passes) ^ "]");
        kv "pass_host_factors" ("[" ^ String.concat "," (List.map (fun p -> json_float p.host) r.passes) ^ "]");
        kv "latency_samples" (string_of_int samples);
        kv "latency_beyond_p99" (string_of_int beyond);
        kv "detail" (obj (List.map metric_json r.detail));
        kv "per_layer" (obj (List.map (fun (n, v) -> kv n (json_float v)) r.layers));
        kv "counts" (obj (List.map (fun (n, v) -> kv n (json_float v)) r.counts));
        kv "attribution" (obj (List.map (fun (n, v) -> kv n (json_float v)) r.attribution));
        kv "problems" ("[" ^ String.concat "," (List.map json_string r.problems) ^ "]");
      ]
  in
  let oc = open_out (!results_prefix ^ ".json") in
  output_string oc record;
  output_char oc '\n';
  close_out oc;
  Printf.printf "# env %s\n" env;
  List.iter (fun (n, v) -> Printf.printf "# end_to_end %-16s %.6g %s\n" n v (List.assoc n end_to_end)) e2e;
  List.iter
    (fun (n, v) -> Printf.printf "# uncorrected %-15s %.6g %s\n" n v (List.assoc n end_to_end))
    raw;
  Printf.printf "# host factor median %.4g over %d passes (probe reference %g s)\n"
    (median (List.map (fun p -> p.host) r.passes))
    (List.length r.passes) probe_ref_s;
  Printf.printf "# failed_ratio %.6g (%d of %d ops)\n" (per (fi r.failed) (fi (max 1 r.attempted))) r.failed r.attempted;
  Printf.printf "# latency samples %d over %d passes, %d beyond p99\n" samples
    (List.length r.latency_passes) beyond;
  List.iter (fun (n, v, u) -> Printf.printf "# detail %-16s %.6g %s\n" n v u) r.detail;
  List.iter (fun (n, v) -> Printf.printf "# layer %-32s %.6g\n" n v) r.layers;
  List.iter (fun (n, v) -> Printf.printf "# count %-32s %.17g\n" n v) r.counts;
  (match List.assoc_opt "traced_wall" r.attribution with
  | None -> ()
  | Some wall ->
      let spans = List.filter (fun (n, _) -> n <> "traced_wall") r.attribution in
      List.iter
        (fun (n, v) ->
          Printf.printf "# attribution %-32s %.6f s%s\n" n v
            (if n = "bench.pass" then " (unattributed)" else ""))
        spans;
      Printf.printf "# attribution sum %.6f s = traced wall %.6f s\n"
        (List.fold_left (fun a (_, v) -> a +. v) 0. spans)
        wall);
  List.iter (fun p -> Printf.printf "# PROBLEM %s\n" p) r.problems;
  print_endline result
