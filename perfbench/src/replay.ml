(* Workload [replay]: saved packet-level traces streamed through the
   online estimators in inference mode, as [pftk live --trace --infer]
   does.

   Set-up runs [Connection.run] over netsim for several Bernoulli loss
   levels and for one path whose only loss is buffer overflow, saves each
   trace with [Serialize.save], and computes the reference
   [Analyzer.summarize ~mode:`Infer] of the reloaded file.  A pass streams
   every file through [Serialize.iter_file] -> [Predictor]; no simulator
   runs in the measured phase.  The final streaming summary must equal the
   reference within the lib/online equivalence tolerances (exact, except
   [avg_t0] within 1e-9 relative).

   The traced pass rebuilds [Predictor] from the layers below: the parse
   ([Serialize.iter_file]), [Karn], [Detector], the summary's counters and
   the predictor's own estimators, each timed over blocks of events.  A
   block never spans a checkpoint, so every snapshot sees exactly the
   state the streaming predictor would see; the rebuilt summary and
   snapshots must equal the end-to-end ones. *)

module Connection = Pftk_tcp.Connection
module Reno = Pftk_tcp.Reno
module Event = Pftk_trace.Event
module Analyzer = Pftk_trace.Analyzer
module Recorder = Pftk_trace.Recorder
module Serialize = Pftk_trace.Serialize
module Predictor = Pftk_online.Predictor
module Karn = Pftk_online.Karn
module Detector = Pftk_online.Detector
module Decay = Pftk_online.Decay
module Ewma = Pftk_online.Ewma
module Window = Pftk_online.Window
module Params = Pftk_core.Params
open Common

type path = {
  label : string;
  loss : float option;  (** Bernoulli loss on the data path *)
  bandwidth : float;  (** bytes/s, both directions *)
  buffer : int;  (** drop-tail capacity, packets *)
  wm : int;
  duration : float;  (** simulated seconds *)
}

let bernoulli p duration =
  {
    label = Printf.sprintf "bernoulli-%g" p;
    loss = Some p;
    bandwidth = 1_250_000.;
    buffer = 100;
    wm = 32;
    duration;
  }

(* Sized to about 110k events each.  The overflow path has a small
   buffer on a 1.5 Mbit/s link and a window well above its
   bandwidth-delay product, so drop-tail overflow is its only loss. *)
let paths =
  [
    bernoulli 0.005 600.;
    bernoulli 0.02 1400.;
    bernoulli 0.05 2300.;
    {
      label = "overflow";
      loss = None;
      bandwidth = 187_500.;
      buffer = 8;
      wm = 64;
      duration = 600.;
    };
  ]

let interval = 100.
let block = 4096

type trace = {
  file : string;
  params : Params.t;
  events : int;
  first_sends : int;  (** first transmissions, the Karn match base *)
  reference : Analyzer.summary;
}

let generate ~dir ~seed i path =
  let seed = Int64.of_int ((1000 * seed) + i) in
  let rng = Pftk_stats.Rng.create ~seed () in
  let scenario =
    {
      Connection.default_scenario with
      Connection.forward_bandwidth = path.bandwidth;
      reverse_bandwidth = path.bandwidth;
      forward_delay = 0.05;
      reverse_delay = 0.05;
      buffer = Pftk_netsim.Queue_discipline.drop_tail ~capacity:path.buffer;
      data_loss =
        Option.map (fun p -> Pftk_loss.Loss_process.bernoulli rng ~p) path.loss;
      sender = { Reno.default_config with wm = path.wm };
    }
  in
  let result = Connection.run ~seed ~duration:path.duration scenario in
  let file = Filename.concat dir (path.label ^ ".trace") in
  Serialize.save file result.Connection.recorder;
  let loaded = Serialize.load file in
  let first_sends =
    Recorder.fold
      (fun n e ->
        match e.Event.kind with
        | Event.Segment_sent { retransmission = false; _ } -> n + 1
        | _ -> n)
      0 loaded
  in
  {
    file;
    params = Params.make ~rtt:0.1 ~t0:1. ~wm:path.wm ();
    events = Recorder.length loaded;
    first_sends;
    reference = Analyzer.summarize ~mode:`Infer loaded;
  }

let same_summary (a : Analyzer.summary) (b : Analyzer.summary) =
  a.duration = b.duration
  && a.packets_sent = b.packets_sent
  && a.loss_indications = b.loss_indications
  && a.td_count = b.td_count
  && a.to_by_backoff = b.to_by_backoff
  && a.observed_p = b.observed_p
  && a.send_rate = b.send_rate
  && a.avg_rtt = b.avg_rtt
  && Float.abs (a.avg_t0 -. b.avg_t0)
     <= 1e-9 *. Float.max (Float.abs a.avg_t0) (Float.abs b.avg_t0)

(* The end-to-end pipeline of one trace.  [progress k] hears every
   [block] events consumed (and the remainder at the end), so per-event
   latency is observed at block granularity. *)
let stream ~progress trace =
  let snaps = ref [] in
  let pred =
    Predictor.create ~mode:`Infer ~interval
      ~on_snapshot:(fun s -> snaps := s :: !snaps)
      trace.params
  in
  let k = ref 0 in
  Serialize.iter_file trace.file (fun e ->
      Predictor.push pred e;
      incr k;
      if !k land (block - 1) = 0 then progress block);
  progress (!k land (block - 1));
  (Predictor.summary pred, List.rev !snaps)

(* --- the traced rebuild ------------------------------------------------- *)

(* Summary's counters and Predictor's estimators, driven by the
   benchmark so that each layer can be timed on its own. *)
type rebuilt = {
  params : Params.t;
  karn : Karn.t;
  mutable td : int;
  to_by_backoff : int array;
  mutable first_timer_sum : float;
  mutable first_timer_count : int;
  mutable closed : int;
  mutable events : int;
  mutable last_time : float;
  mutable packets : int;
  packet_decay : Decay.t;
  indication_decay : Decay.t;
  backoff_decay : Decay.hist;
  rtt_ewma : Ewma.t;
  rtt_window : Window.t;
  mutable next_mark : float;
  mutable snaps : Predictor.snapshot list;
}

let bucket_of timeouts = min (timeouts - 1) 5

let on_indication r indication =
  r.closed <- r.closed + 1;
  let time = Analyzer.indication_time indication in
  Decay.bump r.indication_decay ~time;
  match indication with
  | Analyzer.Td _ -> r.td <- r.td + 1
  | Analyzer.To { timeouts; first_timer; _ } ->
      let b = bucket_of timeouts in
      r.to_by_backoff.(b) <- r.to_by_backoff.(b) + 1;
      r.first_timer_sum <- r.first_timer_sum +. first_timer;
      r.first_timer_count <- r.first_timer_count + 1;
      Decay.observe r.backoff_decay ~time b

let create params =
  let tau = 2. *. interval in
  let r =
    {
      params;
      karn = Karn.create ();
      td = 0;
      to_by_backoff = Array.make 6 0;
      first_timer_sum = 0.;
      first_timer_count = 0;
      closed = 0;
      events = 0;
      last_time = 0.;
      packets = 0;
      packet_decay = Decay.create ~tau ();
      indication_decay = Decay.create ~tau ();
      backoff_decay = Decay.create_hist ~tau ~buckets:6;
      rtt_ewma = Ewma.create ();
      rtt_window = Window.create ~span:interval ();
      next_mark = interval;
      snaps = [];
    }
  in
  (r, Detector.create ~on_indication:(on_indication r) (Detector.infer ()))

let current r detector =
  let to_by_backoff = Array.copy r.to_by_backoff in
  let first_timer_sum = ref r.first_timer_sum in
  let first_timer_count = ref r.first_timer_count in
  let indications = ref r.closed in
  (match Detector.pending detector with
  | Some (Analyzer.To { timeouts; first_timer; _ }) ->
      incr indications;
      let b = bucket_of timeouts in
      to_by_backoff.(b) <- to_by_backoff.(b) + 1;
      first_timer_sum := !first_timer_sum +. first_timer;
      incr first_timer_count
  | Some (Analyzer.Td _) | None -> ());
  let duration = if r.events = 0 then 0. else r.last_time in
  let rtt_count = Karn.samples r.karn in
  {
    Analyzer.duration;
    packets_sent = r.packets;
    loss_indications = !indications;
    td_count = r.td;
    to_by_backoff;
    observed_p =
      (if r.packets = 0 then 0.
       else float_of_int !indications /. float_of_int r.packets);
    avg_rtt =
      (if rtt_count = 0 then 0. else Karn.sum r.karn /. float_of_int rtt_count);
    avg_t0 =
      (if !first_timer_count = 0 then 0.
       else !first_timer_sum /. float_of_int !first_timer_count);
    send_rate =
      (if duration > 0. then float_of_int r.packets /. duration else 0.);
  }

let snapshot_at r detector ~time =
  let summary = current r detector in
  let p = summary.Analyzer.observed_p in
  let rtt = summary.Analyzer.avg_rtt in
  let t0 =
    if summary.Analyzer.avg_t0 > 0. then summary.Analyzer.avg_t0 else 4. *. rtt
  in
  let packets = Decay.value r.packet_decay ~time in
  let indications = Decay.value r.indication_decay ~time in
  {
    Predictor.time;
    packets_sent = summary.Analyzer.packets_sent;
    observed_rate = summary.Analyzer.send_rate;
    p;
    rtt;
    t0;
    p_decayed = (if packets > 0. then Some (indications /. packets) else None);
    rtt_ewma = Ewma.value r.rtt_ewma;
    rtt_windowed = Window.mean r.rtt_window ~now:time;
    prediction =
      (if p > 0. && p < 1. && rtt > 0. && t0 > 0. then begin
         let params = { r.params with Params.rtt; t0 } in
         Some
           {
             Predictor.full = Pftk_core.Full_model.send_rate params p;
             approx = Pftk_core.Approx_model.send_rate params p;
           }
       end
       else None);
  }

(* A growable event array.  Its storage is a large array, which the
   runtime allocates outside the minor heap, so keeping the events adds
   no minor words to the parse. *)
type events = { mutable a : Event.t array; mutable n : int }

let dummy = { Event.time = 0.; kind = Event.Connection_closed }

let push_event g e =
  if g.n = Array.length g.a then begin
    let a = Array.make (2 * g.n) dummy in
    Array.blit g.a 0 a 0 g.n;
    g.a <- a
  end;
  g.a.(g.n) <- e;
  g.n <- g.n + 1

let span = Span.with_span

let traced_trace ~op trace =
  let g =
    span "trace.serialize" ~op
      ~count:(fun g -> g.n)
      (fun () ->
        let g = { a = Array.make block dummy; n = 0 } in
        Serialize.iter_file trace.file (push_event g);
        g)
  in
  let r, detector = create trace.params in
  let a = g.a and n = g.n in
  let i = ref 0 in
  while !i < n do
    let lo = !i in
    let first = a.(lo).Event.time in
    if first >= r.next_mark then
      span "online.predictor" ~op (fun () ->
          while first >= r.next_mark do
            let mark = r.next_mark in
            r.next_mark <- r.next_mark +. interval;
            r.snaps <- snapshot_at r detector ~time:mark :: r.snaps
          done);
    let hi = ref (lo + 1) in
    while !hi < n && !hi - lo < block && a.(!hi).Event.time < r.next_mark do
      incr hi
    done;
    let hi = !hi in
    let len = hi - lo in
    span "online.karn" ~op
      ~count:(fun () -> len)
      (fun () ->
        for k = lo to hi - 1 do
          Karn.push r.karn a.(k)
        done);
    span "online.detector" ~op
      ~count:(fun () -> len)
      (fun () ->
        for k = lo to hi - 1 do
          Detector.push detector a.(k)
        done);
    span "online.summary" ~op
      ~count:(fun () -> len)
      (fun () ->
        for k = lo to hi - 1 do
          let e = a.(k) in
          r.events <- r.events + 1;
          r.last_time <- e.Event.time;
          if Event.is_send e then r.packets <- r.packets + 1
        done);
    span "online.predictor" ~op
      ~count:(fun () -> len)
      (fun () ->
        for k = lo to hi - 1 do
          let e = a.(k) in
          let time = e.Event.time in
          match e.Event.kind with
          | Event.Segment_sent _ -> Decay.bump r.packet_decay ~time
          | Event.Rtt_sample { sample; _ } ->
              Ewma.update r.rtt_ewma sample;
              Window.add r.rtt_window ~time sample
          | Event.Ack_received _ | Event.Timer_fired _
          | Event.Fast_retransmit_triggered _ | Event.Round_started _
          | Event.Connection_closed ->
              ()
        done);
    i := hi
  done;
  (current r detector, List.rev r.snaps, r, detector)

let layers ~traces ~share spans results =
  let finals = List.map (fun (_, _, r, _) -> r) results in
  let named n = Span.named n spans in
  let busy n = Span.total_duration (named n) in
  let count n = fi (Span.total_count (named n)) in
  let words n = Span.total_words (named n) in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. finals in
  [
    ("trace.serialize_s", share "trace.serialize");
    ("trace.serialize_ns_per_event", 1e9 *. per (busy "trace.serialize") (count "trace.serialize"));
    ("trace.serialize_words_per_event", per (words "trace.serialize") (count "trace.serialize"));
    ("online.karn_s", share "online.karn");
    ("online.karn_ns_per_event", 1e9 *. per (busy "online.karn") (count "online.karn"));
    ("online.karn_words_per_event", per (words "online.karn") (count "online.karn"));
    ( "online.karn_match_ratio",
      per (sum (fun r -> fi (Karn.samples r.karn)))
        (fi (List.fold_left (fun a (t : trace) -> a + t.first_sends) 0 traces)) );
    ("online.karn_outstanding_end", sum (fun r -> fi (Karn.outstanding r.karn)));
    ("online.detector_s", share "online.detector");
    ("online.detector_td", sum (fun r -> fi r.td));
    ("online.detector_to", sum (fun r -> fi (r.closed - r.td)));
    ("online.summary_self_s", share "online.summary");
    ("online.predictor_self_s", share "online.predictor");
    ("online.snapshots", sum (fun r -> fi (List.length r.snaps)));
  ]

let counted =
  [ "trace.serialize"; "online.karn"; "online.detector"; "online.summary"; "online.predictor" ]

(* --- the workload --------------------------------------------------------- *)

let run ~seed ~seconds ~trace ~dir =
  ensure_dir dir;
  let problems = ref [] in
  let problem msg = if not (List.mem msg !problems) then problems := msg :: !problems in
  let setup_s, setup_uncorrected_s, traces =
    setup (fun () -> List.mapi (fun i p -> generate ~dir ~seed i p) paths)
  in
  let attempted = ref 0 and failed = ref 0 in
  let first_outputs = ref None in
  let pass lat =
    let t0 = now () in
    let good = ref 0 in
    let outputs =
      List.map
        (fun t ->
          let done_ = ref [] in
          let progress k = done_ := (now () -. t0, k) :: !done_ in
          let summary, snaps = stream ~progress t in
          attempted := !attempted + t.events;
          if same_summary summary t.reference then begin
            good := !good + t.events;
            List.iter (fun (v, k) -> Lat.add lat ~weight:k v) !done_
          end
          else begin
            failed := !failed + t.events;
            problem (t.file ^ ": streaming summary differs from Analyzer.summarize")
          end;
          (summary, snaps))
        traces
    in
    if !first_outputs = None then first_outputs := Some outputs;
    !good
  in
  let passes = measure ~seconds pass in
  let layers, counts, attribution =
    if not trace then ([], [], [])
    else
      let expected = Option.get !first_outputs in
      traced ~problem ~counted ~layers:(layers ~traces)
        ~check:(fun results ->
          List.iter2
            (fun (summary, snaps, _, _) (want_summary, want_snaps) ->
              if not (same_summary summary want_summary && snaps = want_snaps) then
                problem "replay: traced rebuild differs from the end-to-end predictor")
            results expected)
        (fun () -> List.mapi (fun op t -> traced_trace ~op t) traces)
  in
  let events = List.fold_left (fun a (t : trace) -> a + t.events) 0 traces in
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
        ("events_per_s", ops_per_s passes, "1/s");
        ("pass_s", pass_wall passes, "s");
        ("passes", fi (List.length passes), "count");
      ];
    sizes =
      [
        ("traces", String.concat "," (List.map (fun p -> p.label) paths));
        ("events_per_pass", string_of_int events);
        ("mode", "infer");
      ];
    layers;
    counts;
    attribution;
  }
