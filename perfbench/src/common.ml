(* Shared plumbing: clocks, order statistics, the per-run result record
   and the set-up / measure loops every workload uses. *)

let now () = Int64.to_float (Span.now_ns ()) *. 1e-9

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Latency samples carry a weight: ops that complete together (one
   artifact, one trace, one read of answers) share one sample. *)
module Lat = struct
  type t = { mutable samples : (float * int) list; mutable n : int }

  let create () = { samples = []; n = 0 }

  let add t ?(weight = 1) v =
    if weight > 0 then begin
      t.samples <- (v, weight) :: t.samples;
      t.n <- t.n + weight
    end

  (* Smallest sample with at least [q] of the total weight at or below it. *)
  let quantile t q =
    if t.n = 0 then nan
    else begin
      let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) t.samples in
      let target = q *. float_of_int t.n in
      let rec go acc = function
        | [] -> nan
        | [ (v, _) ] -> v
        | (v, w) :: rest ->
            let acc = acc + w in
            if float_of_int acc >= target then v else go acc rest
      in
      go 0 sorted
    end

  (* Ops strictly above the [q] quantile's value. *)
  let beyond t q =
    let v = quantile t q in
    List.fold_left (fun a (x, w) -> if x > v then a + w else a) 0 t.samples
end

(* One measured pass: ops completed and checked, wall clock, latency of
   each of those ops. *)
type pass = {
  ops : int;
  wall : float;
  host : float;  (** host slowdown during the pass, see [host_factor] *)
  lat : Lat.t;
}

(* --- host speed ----------------------------------------------------------

   The benchmark shares its host, whose speed for the same instructions
   moves between levels up to 1.7x apart, for seconds to minutes at a
   time: the process's CPU time moves with its wall clock and the host's
   steal time stays near zero, so this is contention for the core and its
   caches, not preemption.  Within a run it averages out; between runs
   minutes apart it does not, and runs of the same code spread by a fifth.

   So every timed pass and set-up is bracketed by [probe], a fixed loop
   that calls no repository code and allocates nothing, and its wall
   clock is divided by the host factor: the bracketing probes' mean time
   over [probe_ref_s].  The time metrics are thereby those of the host at
   the probe's reference speed; a change to the program moves them as
   much as it moves the raw clock, since the probe does not run the
   program.  The raw figures are printed and recorded beside them. *)

(* 4096 short string keys in a hash table: about 200 KB of live data,
   next to the tens of MB each workload keeps. *)
let probe_keys = Array.init 4096 (fun i -> string_of_int (i * 7919))

let probe_table =
  let h = Hashtbl.create 4096 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) probe_keys;
  h

let probe_sink = ref 0

(* About 9 ms of string hashing, comparison and bucket walks, allocating
   nothing.  Of the loops tried (hex-digit scanning, a dependent walk
   over a 1 MB table, a 2 MB sweep, string splitting and float parsing),
   this one's time followed each workload's across host states most
   closely, near proportionally. *)
let probe () =
  let t0 = now () in
  let acc = ref 0 in
  for r = 1 to 40 do
    for i = 0 to Array.length probe_keys - 1 do
      acc := !acc + r + Hashtbl.find probe_table (Array.unsafe_get probe_keys i)
    done
  done;
  probe_sink := !probe_sink + !acc;
  now () -. t0

(* The probe's time on the host this benchmark was tuned on (2 vCPUs of
   an Intel Xeon, release build) in its fast state. *)
let probe_ref_s = 0.009

(* Probes [before] and [after] an interval bracket it. *)
let host_factor before after = 0.5 *. (before +. after) /. probe_ref_s

(* What one workload run reports.  [detail] holds the workload's own
   headline numbers (per-artifact seconds, events/s, ...) for the
   record; [layers] the per-layer metrics of a traced run. *)
type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks, empty when correct *)
  setup_s : float;  (** corrected for the host's speed *)
  setup_uncorrected_s : float;
  passes : pass list;  (** the passes [ops_per_s] reduces *)
  latency_passes : pass list;
      (** the passes the latency metrics reduce: [passes] itself, except
          on [serve], whose latency comes from its open-loop passes *)
  detail : (string * float * string) list;
  sizes : (string * string) list;
  layers : (string * float) list;
  counts : (string * float) list;
      (** work and allocation counts of the traced run; they repeat
          exactly for the same seed *)
  attribution : (string * float) list;
      (** first traced pass: each span name's share of the wall clock
          ("bench.pass" is the unattributed rest) and "traced_wall" *)
}

(* Run the set-up [f] at least 3 times, then again while less than 1 s
   has gone, at most 25 times.  Returns the median wall clock, corrected
   and not, and the last result. *)
let setup f =
  let t_begin = now () in
  let rec go fixed raw reps before =
    let t0 = now () in
    let v = f () in
    let t = now () -. t0 in
    let after = probe () in
    let fixed = (t /. host_factor before after) :: fixed and raw = t :: raw in
    let reps = reps + 1 in
    if reps < 3 || (reps < 25 && now () -. t_begin < 1.0) then go fixed raw reps after
    else (median fixed, median raw, v)
  in
  go [] [] 0 (probe ())

(* Run [pass] until [seconds] have gone, at least [min_passes] times.
   [pass lat] records the latency of each op it completes correctly into
   [lat] and returns their number.  A probe runs between passes. *)
let measure ?(min_passes = 1) ~seconds pass =
  let t_begin = now () in
  let rec go acc n before =
    let lat = Lat.create () in
    let t0 = now () in
    let ops = pass lat in
    let wall = now () -. t0 in
    let after = probe () in
    let acc = { ops; wall; host = host_factor before after; lat } :: acc in
    if n + 1 < min_passes || now () -. t_begin < seconds then go acc (n + 1) after
    else acc
  in
  List.rev (go [] 0 (probe ()))

(* Mean of the middle half of [xs] (all of them when fewer than four).
   Per-pass figures are reduced with it: on a shared machine a pass now
   and then runs several times slower, which a pooled figure, above all a
   pooled tail quantile, follows; and the machine's speed also drifts
   between states lasting seconds, across which a median jumps while
   this moves smoothly. *)
let midmean xs =
  let a = Array.of_list (List.filter Float.is_finite xs) in
  Array.sort Float.compare a;
  let n = Array.length a in
  let k = n / 4 in
  let sum = ref 0. in
  for i = k to n - k - 1 do
    sum := !sum +. a.(i)
  done;
  if n = 0 then nan else !sum /. float_of_int (n - (2 * k))

let ops_per_s passes =
  midmean (List.map (fun p -> float_of_int p.ops *. p.host /. p.wall) passes)

let latency q passes = midmean (List.map (fun p -> Lat.quantile p.lat q /. p.host) passes)

(* The same passes with their raw clock. *)
let uncorrected passes = List.map (fun p -> { p with host = 1. }) passes

(* Every op of the run, for the sample counts the record states. *)
let pooled_latency passes =
  let all = Lat.create () in
  List.iter
    (fun p -> List.iter (fun (v, w) -> Lat.add all ~weight:w v) p.lat.Lat.samples)
    passes;
  all

let pass_wall passes = median (List.map (fun p -> p.wall) passes)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let ensure_dir path =
  let rec mk p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  mk path

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision; JSON has no NaN or infinity. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* Per-layer helpers shared by the traced runs. *)
let per a b = if b > 0. then a /. b else 0.
let fi = float_of_int

(* The median over traced passes of each per-layer value; counts are
   equal across passes (checked by the caller), so their median is the
   count itself. *)
let median_layers passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) -> (name, median (List.map (List.assoc name) passes)))
        first

(* Where the record and the spans of a run go (set by [Main]). *)
let results_prefix = ref "perfbench-result"

let save_spans spans =
  let oc = open_out (!results_prefix ^ ".spans.jsonl") in
  List.iter
    (fun s ->
      output_string oc (Span.to_json s);
      output_char oc '\n')
    (List.sort (fun (a : Span.t) b -> compare a.id b.id) spans);
  close_out oc

(* The traced run.  [body] rebuilds one pass of the workload from
   lower-layer calls.  Each of two rounds runs it once with spans off and
   once with spans on, under the root span "bench.pass"; the ratio of the
   two wall clocks is the tracing overhead.  [check] verifies every
   result, [layers ~share spans result] gives the per-layer metrics of a
   traced pass (their median over the two is reported), and the work and
   allocation totals of the [counted] span names must repeat exactly.
   Returns the metrics, those totals, and the first traced pass's
   wall-clock attribution. *)
let traced ~problem ~counted ~check ~layers body =
  let timed f =
    let t0 = Span.now_ns () in
    let v = f () in
    (v, Span.seconds_between t0 (Span.now_ns ()))
  in
  let round () =
    let v, untraced = timed body in
    check v;
    Span.reset ();
    Span.enabled := true;
    let v, wall = timed (fun () -> Span.with_span "bench.pass" body) in
    Span.enabled := false;
    check v;
    (Span.all (), wall, untraced, v)
  in
  let runs = List.init 2 (fun _ -> round ()) in
  let counts (spans, _, _, _) =
    List.concat_map
      (fun n ->
        let s = Span.named n spans in
        [ (n ^ ".count", fi (Span.total_count s)); (n ^ ".minor_words", Span.total_words s) ])
      counted
  in
  let all = List.map counts runs in
  if List.exists (fun c -> c <> List.hd all) all then
    problem "traced work/allocation counts differ between passes";
  let metrics (spans, wall, untraced, v) =
    let share = Span.share_of (Span.attribute spans) in
    layers ~share spans v
    @ [
        ("bench.trace_overhead_ratio", per wall untraced -. 1.);
        ("bench.unattributed_ratio", per (share "bench.pass") wall);
      ]
  in
  let spans0, wall0, _, _ = List.hd runs in
  save_spans spans0;
  ( median_layers (List.map metrics runs),
    List.hd all,
    Span.attribute spans0 @ [ ("traced_wall", wall0) ] )
