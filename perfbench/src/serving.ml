(* Workload [serve]: the [pftk serve] line protocol through
   [Pftk_batch.Stream.run] at two jobs (the CLI default on a two-core
   machine), as a bulk closed loop for throughput and as an open loop at a
   fixed rate for latency.

   One seeded generator makes the queries, on the [full] model: p
   log-uniform in [1e-4, 0.5], RTT log-uniform in [10 ms, 1 s],
   t0 = k * RTT, wm unlimited, small or large, each number printed either
   short (%g) or round-trip (%.17g).  About 1% of lines are planted
   rejects (NaN, out-of-domain values, garbage, a wrong field count, and
   one line over 4096 bytes).  The reference answer of an accepted line
   is [Kernel.scalar_reference] printed with %.17g; a reject's is [nan].

   A bulk pass runs the server in this domain on the query file, as fast
   as it reads; a reader thread checks and timestamps the answers.  An
   open-loop pass runs the server in a second domain between two pipes;
   the main domain writes a window of the same queries on a schedule at
   a fixed rate and reads, checks and timestamps the answers in the same
   select loop.  Latency runs from a query's due time to the read that
   returned its answer.  [ops_per_s] reduces the bulk passes, the latency
   metrics the open-loop passes. *)

module Kernel = Pftk_batch.Kernel
module Columns = Pftk_batch.Columns
module Serve = Pftk_batch.Serve
module Scan = Pftk_batch.Scan
module Engine = Pftk_batch.Engine
module Stream = Pftk_batch.Stream
open Common

let jobs = 2
let kernel = Kernel.make Kernel.Full
let bulk_lines = 200_000

(* Open loop: well below the bulk capacity (about 4e5 lines/s on two
   cores), so the server is never the bottleneck of the schedule. *)
let paced_rate = 4000.
let paced_pass_s = 2.0
let paced_lines = int_of_float (paced_rate *. paced_pass_s)

(* Pass k is an open-loop pass when k mod paced_every = 1, so the first
   one comes second and about three quarters of the measured time goes
   to bulk passes.  The m-th open-loop pass sends window m mod 25 of the
   bulk query set. *)
let paced_every = 10
let drain_s = 10.

(* Answers that arrive closer together than this belong to one flush. *)
let burst_gap_s = 0.002

type queries = { lines : string array; expected : string array; planted : int }

let rejects =
  [|
    "nan 0.2 0.8 16";
    "0 0.2 0.8 16";
    "1.5 0.1 0.4 8";
    "0.01 -0.2 0.8 8";
    "0.01 0.2 0 8";
    "0.01 0.2 0.8 3.5";
    "0.01 0.2 zzz 8";
    "hello world";
    "0.01 0.2 0.8";
    "";
  |]

let long_line = "0.01 0.2 0.8 " ^ String.make 4100 '8'

let generate ~seed n =
  let st = Random.State.make [| seed; 0; n |] in
  let lines = Array.make n "" and expected = Array.make n "" in
  let log_uniform lo hi = exp (log lo +. Random.State.float st (log hi -. log lo)) in
  let num v =
    if Random.State.bool st then Printf.sprintf "%g" v else Printf.sprintf "%.17g" v
  in
  let long_at = Random.State.int st n in
  let planted = ref 0 in
  for i = 0 to n - 1 do
    if i = long_at || Random.State.int st 100 = 0 then begin
      lines.(i) <-
        (if i = long_at then long_line
         else rejects.(Random.State.int st (Array.length rejects)));
      expected.(i) <- "nan";
      incr planted
    end
    else begin
      let p = num (log_uniform 1e-4 0.5) in
      let rtt_v = log_uniform 0.01 1. in
      let rtt = num rtt_v in
      let t0 = num (float_of_int (1 + Random.State.int st 8) *. rtt_v) in
      let wm =
        match Random.State.int st 3 with
        | 0 -> 0
        | 1 -> 2 + Random.State.int st 15
        | _ -> 64 + Random.State.int st 1000
      in
      lines.(i) <- Printf.sprintf "%s %s %s %d" p rtt t0 wm;
      expected.(i) <-
        Printf.sprintf "%.17g"
          (Kernel.scalar_reference kernel ~p:(float_of_string p)
             ~rtt:(float_of_string rtt) ~t0:(float_of_string t0)
             ~wm:(if wm <= 0 then Columns.unlimited_wm else float_of_int wm))
    end
  done;
  { lines; expected; planted = !planted }

(* --- the traced rebuild of Stream.run ----------------------------------- *)

let span = Span.with_span

(* Stream.run with a span around each layer's calls, per chunk: read the
   chunk's lines, parse, scan, pack the columns, run the engine, format,
   write.  Same protocol and bytes as Stream.run. *)
let traced_server ~parent ic oc err =
  let span name ~count f = span ~parent name ~count f in
  let chunk = Engine.default_chunk in
  let total = ref 0 and failed = ref 0 and eof = ref false in
  while not !eof do
    let lines =
      span "batch.read" ~count:Array.length (fun () ->
          let acc = ref [] and k = ref 0 in
          (try
             while !k < chunk do
               acc := input_line ic :: !acc;
               incr k
             done
           with End_of_file -> eof := true);
          Array.of_list (List.rev !acc))
    in
    let n = Array.length lines in
    if n > 0 then begin
      let parsed =
        span "batch.parse" ~count:Array.length (fun () -> Array.map Serve.parse_line lines)
      in
      let checked =
        span "batch.scan" ~count:Array.length (fun () ->
            Array.map
              (function
                | Error m -> Error m
                | Ok (q : Serve.query) -> (
                    match Scan.check_row ~p:q.p ~rtt:q.rtt ~t0:q.t0 ~wm:q.wm with
                    | Ok () -> Ok q
                    | Error (_, m) -> Error m))
              parsed)
      in
      let nok = Array.fold_left (fun a r -> if Result.is_ok r then a + 1 else a) 0 checked in
      let cols =
        span "batch.pack" ~count:(fun _ -> nok) (fun () ->
            let cols = Columns.create nok in
            let j = ref 0 in
            Array.iter
              (function
                | Ok (q : Serve.query) ->
                    Columns.set cols !j ~p:q.p ~rtt:q.rtt ~t0:q.t0 ~wm:q.wm;
                    incr j
                | Error _ -> ())
              checked;
            cols)
      in
      let out = span "batch.kernel" ~count:(fun _ -> nok) (fun () -> Engine.run ~jobs kernel cols) in
      let text, diags =
        span "batch.format" ~count:(fun _ -> n) (fun () ->
            let b = Buffer.create (24 * n) and d = Buffer.create 256 in
            let j = ref 0 in
            Array.iteri
              (fun i r ->
                (match r with
                | Ok _ ->
                    Buffer.add_string b (Serve.format_rate (Float.Array.get out !j));
                    incr j
                | Error m ->
                    incr failed;
                    Printf.bprintf d "pftk serve: line %d: %s\n" (!total + i + 1) m;
                    Buffer.add_string b Serve.sentinel);
                Buffer.add_char b '\n')
              checked;
            (Buffer.contents b, Buffer.contents d))
      in
      total := !total + n;
      span "batch.write" ~count:(fun () -> n) (fun () ->
          output_string err diags;
          output_string oc text)
    end
  done;
  span "batch.write" ~count:(fun () -> 0) (fun () ->
      flush oc;
      flush err);
  (!total, !failed)

let stream_server ic oc err =
  let o = Stream.run ~jobs kernel ic oc ~err in
  (o.Stream.total, o.Stream.failed)

(* --- sessions: one pass of queries through a server ------------------- *)

type session = {
  answered : int;
  wrong : int;
  late_answers : int;  (** answered after the drain deadline *)
  total : int;  (** lines the server saw *)
  rejected : int;  (** lines the server rejected *)
  diagnostics : int;
  reads : (float * int) list;  (** (time since start, answers), in order *)
  lateness : float list;  (** generator lateness of each write, s *)
}

let count_lines file =
  let ic = open_in_bin file in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

(* Splits answer bytes into lines and checks each against the reference
   of its query; [answer j ok] hears every complete line. *)
type checker = {
  expected : string array;
  line : Buffer.t;
  mutable seen : int;
  mutable bad : int;
}

let checker expected = { expected; line = Buffer.create 64; seen = 0; bad = 0 }

let feed c buf k ~answer =
  for i = 0 to k - 1 do
    let ch = Bytes.get buf i in
    if ch = '\n' then begin
      let j = c.seen in
      let ok = j < Array.length c.expected && Buffer.contents c.line = c.expected.(j) in
      if not ok then c.bad <- c.bad + 1;
      answer j ok;
      Buffer.clear c.line;
      c.seen <- j + 1
    end
    else Buffer.add_char c.line ch
  done

(* Bulk: the server reads the query file in this domain and writes its
   answers into a pipe; a reader thread of the same domain checks and
   timestamps them.  A second domain would only add noise: Stream.run
   never forks, and every minor collection waits for all domains.  All of
   a pass's queries are due at its start. *)
let serve_file ~file ~errfile oc server =
  let ic = open_in_bin file and err = open_out_bin errfile in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      close_out_noerr oc;
      close_out_noerr err)
    (fun () -> server ic oc err)

let bulk_session ~file ~errfile ~expected ~lat server =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let c = checker expected in
  let reads = ref [] in
  let t_start = now () in
  let reader =
    Thread.create
      (fun () ->
        let buf = Bytes.create 65536 in
        let rec loop () =
          let k = Unix.read out_r buf 0 (Bytes.length buf) in
          if k > 0 then begin
            let t = now () -. t_start in
            let before = c.seen and good = ref 0 in
            feed c buf k ~answer:(fun _ ok -> if ok then incr good);
            Lat.add lat ~weight:!good t;
            reads := (t, c.seen - before) :: !reads;
            loop ()
          end
        in
        loop ())
      ()
  in
  let total, rejected =
    serve_file ~file ~errfile (Unix.out_channel_of_descr out_w) server
  in
  Thread.join reader;
  Unix.close out_r;
  {
    answered = c.seen;
    wrong = c.bad;
    late_answers = 0;
    total;
    rejected;
    diagnostics = count_lines errfile;
    reads = List.rev !reads;
    lateness = [];
  }

(* The traced bulk pass writes its answers to a file, checked by the
   returned function once the pass is over: a reader thread allocating
   inside the server's spans would make their minor-word counts depend on
   timing. *)
let bulk_to_file ~file ~errfile ~expected server =
  let answers = Filename.concat (Filename.dirname errfile) "answers.txt" in
  let total, rejected = serve_file ~file ~errfile (open_out_bin answers) server in
  fun () ->
    let c = checker expected in
    let ic = open_in_bin answers and buf = Bytes.create 65536 in
    let rec drain () =
      let k = input ic buf 0 (Bytes.length buf) in
      if k > 0 then begin
        feed c buf k ~answer:(fun _ _ -> ());
        drain ()
      end
    in
    drain ();
    close_in ic;
    {
      answered = c.seen;
      wrong = c.bad;
      late_answers = 0;
      total;
      rejected;
      diagnostics = count_lines errfile;
      reads = [];
      lateness = [];
    }

(* Paced: the server runs in a second domain between two pipes; this
   domain writes each query at its due time and reads the answers in one
   select loop. *)
let paced_session ~queries ~errfile ~expected ~lat server =
  let n = Array.length expected in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let t_start = now () in
  let dom =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr in_r in
        let oc = Unix.out_channel_of_descr out_w in
        let err = open_out_bin errfile in
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr oc;
            close_in_noerr ic;
            close_out_noerr err)
          (fun () -> server ic oc err))
  in
  let due i = t_start +. (float_of_int i /. paced_rate) in
  Unix.set_nonblock in_w;
  let written = ref 0 and pending = ref Bytes.empty and pending_off = ref 0 in
  let closed_in = ref false in
  let lateness = ref [] and reads = ref [] and late_answers = ref 0 in
  let c = checker expected in
  let buf = Bytes.create 65536 in
  let last_due = due (max 0 (n - 1)) in
  let eof = ref false in
  while not !eof do
    let t = now () in
    if not !closed_in then begin
      if !pending_off >= Bytes.length !pending && !written < n && due !written <= t
      then begin
        let b = Buffer.create 256 in
        while !written < n && due !written <= t do
          lateness := (t -. due !written) :: !lateness;
          Buffer.add_string b queries.(!written);
          Buffer.add_char b '\n';
          incr written
        done;
        pending := Buffer.to_bytes b;
        pending_off := 0
      end;
      if !written = n && !pending_off >= Bytes.length !pending then begin
        Unix.close in_w;
        closed_in := true
      end
    end;
    let writing = (not !closed_in) && !pending_off < Bytes.length !pending in
    let timeout =
      if writing then 0.05
      else if !closed_in || !written >= n then -1.
      else Float.max 0. (due !written -. now ())
    in
    let ready_r, ready_w, _ =
      Unix.select [ out_r ] (if writing then [ in_w ] else []) [] timeout
    in
    if ready_w <> [] then begin
      match
        Unix.single_write in_w !pending !pending_off (Bytes.length !pending - !pending_off)
      with
      | k -> pending_off := !pending_off + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end;
    if ready_r <> [] then begin
      let k = Unix.read out_r buf 0 (Bytes.length buf) in
      let t = now () in
      if k = 0 then eof := true
      else begin
        let before = c.seen in
        feed c buf k ~answer:(fun j ok ->
            if ok then
              if t -. last_due > drain_s then incr late_answers
              else Lat.add lat (t -. due j));
        reads := (t -. t_start, c.seen - before) :: !reads
      end
    end
  done;
  Unix.close out_r;
  let total, rejected = Domain.join dom in
  {
    answered = c.seen;
    wrong = c.bad;
    late_answers = !late_answers;
    total;
    rejected;
    diagnostics = count_lines errfile;
    reads = List.rev !reads;
    lateness = !lateness;
  }

(* Answer bursts seen by the reader: (start, end, answers). *)
let bursts reads =
  List.fold_left
    (fun acc (t, k) ->
      match acc with
      | (s, e, m) :: rest when t -. e < burst_gap_s -> (s, t, m + k) :: rest
      | _ -> (t, t, k) :: acc)
    [] reads
  |> List.rev

(* --- per-layer metrics -------------------------------------------------- *)

let layers ~lines ~share spans _ =
  let named n = Span.named n spans in
  let busy n = Span.total_duration (named n) in
  let count n = fi (Span.total_count (named n)) in
  let batch = List.filter (fun (s : Span.t) -> String.length s.name > 6 && String.sub s.name 0 6 = "batch.") spans in
  [
    ("batch.read_s", share "batch.read");
    ("batch.parse_s", share "batch.parse");
    ("batch.parse_ns_per_line", 1e9 *. per (busy "batch.parse") (count "batch.parse"));
    ("batch.scan_s", share "batch.scan");
    ("batch.pack_s", share "batch.pack");
    ("batch.kernel_s", share "batch.kernel");
    ("batch.kernel_ns_per_row", 1e9 *. per (busy "batch.kernel") (count "batch.kernel"));
    ("batch.format_s", share "batch.format");
    ("batch.format_ns_per_line", 1e9 *. per (busy "batch.format") (count "batch.format"));
    ("batch.write_s", share "batch.write");
    ("batch.words_per_line", per (Span.total_words batch) (fi lines));
    ("batch.accept_ratio", per (count "batch.kernel") (count "batch.parse"));
    ("batch.chunks", fi (List.length (named "batch.kernel")));
  ]

let counted =
  [ "batch.read"; "batch.parse"; "batch.scan"; "batch.pack"; "batch.kernel"; "batch.format"; "batch.write" ]

(* --- the workload ----------------------------------------------------------- *)

(* Lines [w * paced_lines, (w + 1) * paced_lines) of the bulk set.  Every
   accepted query's reference rate is finite, so its rejects are the
   lines whose reference is nan. *)
let window (q : queries) w =
  let sub a = Array.sub a (w * paced_lines) paced_lines in
  let expected = sub q.expected in
  {
    lines = sub q.lines;
    expected;
    planted = Array.fold_left (fun a e -> if e = "nan" then a + 1 else a) 0 expected;
  }

let run ~seed ~seconds ~trace ~dir =
  ensure_dir dir;
  let errfile = Filename.concat dir "diagnostics.txt" in
  let qfile = Filename.concat dir "queries.txt" in
  let setup_s, setup_uncorrected_s, q =
    setup (fun () ->
        let q = generate ~seed bulk_lines in
        let oc = open_out_bin qfile in
        Array.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          q.lines;
        close_out oc;
        q)
  in
  let windows = Array.init (bulk_lines / paced_lines) (window q) in
  let problems = ref [] in
  let problem msg = if not (List.mem msg !problems) then problems := msg :: !problems in
  let attempted = ref 0 and failed = ref 0 in
  let check (q : queries) (s : session) =
    let n = Array.length q.lines in
    attempted := !attempted + n;
    let bad = (n - s.answered) + s.wrong + s.late_answers in
    let bad = bad + abs (s.diagnostics - q.planted) in
    let bad = min n bad in
    failed := !failed + bad;
    if s.answered <> n then problem "serve: not every query was answered";
    if s.wrong > 0 then problem "serve: an answer differs from the scalar reference";
    if s.late_answers > 0 then problem "serve: answers arrived after the drain deadline";
    if s.diagnostics <> q.planted || s.rejected <> q.planted || s.total <> n then
      problem "serve: diagnostics do not match the planted rejects";
    n - bad
  in
  (* Newest first; [kinds] says which passes were open loop. *)
  let kinds = ref [] and paced = ref [] in
  let pass lat =
    if List.length !kinds mod paced_every = 1 then begin
      let w = windows.(List.length !paced mod Array.length windows) in
      let s =
        paced_session ~queries:w.lines ~errfile ~expected:w.expected ~lat stream_server
      in
      kinds := true :: !kinds;
      paced := s :: !paced;
      check w s
    end
    else begin
      let s = bulk_session ~file:qfile ~errfile ~expected:q.expected ~lat stream_server in
      kinds := false :: !kinds;
      check q s
    end
  in
  let all = measure ~min_passes:2 ~seconds pass in
  let tagged = List.combine all (List.rev !kinds) in
  let passes = List.filter_map (fun (p, k) -> if k then None else Some p) tagged in
  let paced_passes = List.filter_map (fun (p, k) -> if k then Some p else None) tagged in
  let sessions = List.rev !paced in
  (* Stream's batching, seen from outside as the open-loop passes' answer
     bursts. *)
  let stream_layers () =
    let bs = List.map (fun s -> bursts s.reads) sessions in
    (* Answers come in query order, so the i-th answer of a pass is the
       one due at i / rate; its fill wait ends when its burst starts. *)
    let fill = Lat.create () in
    List.iter
      (fun b ->
        let i = ref 0 in
        List.iter
          (fun (start, _, k) ->
            for _ = 1 to k do
              Lat.add fill (start -. (fi !i /. paced_rate));
              incr i
            done)
          b)
      bs;
    let late = Lat.create () in
    List.iter (fun s -> List.iter (fun v -> Lat.add late v) s.lateness) sessions;
    [
      ("batch.flushes", median (List.map (fun b -> fi (List.length b)) bs));
      ( "batch.rows_per_flush",
        median (List.map (fun b -> per (fi paced_lines) (fi (List.length b))) bs) );
      ( "batch.flush_ms",
        1e3 *. median (List.concat_map (fun b -> List.map (fun (s, e, _) -> e -. s) b) bs) );
      ("batch.fill_wait_p50_ms", 1e3 *. Lat.quantile fill 0.5);
      ("bench.generator_late_p99_ms", 1e3 *. Lat.quantile late 0.99);
    ]
  in
  (* The traced rounds rebuild a bulk pass. *)
  let layers, counts, attribution =
    if not trace then ([], [], [])
    else
      let layers, counts, attribution =
        traced ~problem ~counted ~layers:(layers ~lines:bulk_lines)
          ~check:(fun finish ->
            let s = finish () in
            if s.answered <> bulk_lines || s.wrong > 0 || s.diagnostics <> q.planted then
              problem "serve: traced rebuild answers differ from the reference")
          (fun () ->
            let server = traced_server ~parent:(Span.current ()) in
            bulk_to_file ~file:qfile ~errfile ~expected:q.expected server)
      in
      (layers @ stream_layers (), counts, attribution)
  in
  {
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    setup_s;
    setup_uncorrected_s;
    passes;
    (* Open-loop latency is mostly the schedule's wait for the flush,
       not work the host's speed scales. *)
    latency_passes = uncorrected paced_passes;
    detail =
      [
        ("queries_per_s", ops_per_s passes, "1/s");
        ("pass_s", pass_wall passes, "s");
        ("passes", fi (List.length passes), "count");
        ("paced_passes", fi (List.length paced_passes), "count");
      ];
    sizes =
      [
        ("lines_per_pass", string_of_int bulk_lines);
        ("lines_per_paced_pass", string_of_int paced_lines);
        ("planted_rejects", string_of_int q.planted);
        ("model", Kernel.name kernel);
        ("jobs", string_of_int jobs);
        ("chunk", string_of_int Engine.default_chunk);
        ("offered_rate_per_s", Printf.sprintf "%g" paced_rate);
        ("pass_schedule_s", Printf.sprintf "%g" paced_pass_s);
        ("paced_every", string_of_int paced_every);
      ];
    layers;
    counts;
    attribution;
  }
