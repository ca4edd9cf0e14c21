(* Tests for lib/batch: jobs-independence of the engine (byte-identical
   output for any [jobs]/[chunk]), empty and single-row groups, the
   hoisted domain scan (first-bad-row index and scalar-exact messages),
   kernel-vs-scalar bit-equality on a pinned grid, the batched inverse
   against the scalar bisection, validation caching, the
   [pftk serve --batch] CLI error contract, and [Stream.run]'s reader:
   answers before EOF, framing invariance, bounded memory. *)

module Columns = Pftk_batch.Columns
module Scan = Pftk_batch.Scan
module Kernel = Pftk_batch.Kernel
module Engine = Pftk_batch.Engine
module Serve = Pftk_batch.Serve
module Stream = Pftk_batch.Stream

let case name f = Alcotest.test_case name `Quick f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i =
    i + n <= m && (String.equal (String.sub s i n) sub || scan (i + 1))
  in
  scan 0

let bits = Int64.bits_of_float

let bits_eq a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (bits a) (bits b)

let all_models =
  [
    Kernel.make ~b:2 Kernel.Full;
    Kernel.make ~b:1 Kernel.Full;
    Kernel.make ~b:2 Kernel.Full_approx_q;
    Kernel.make ~b:2 Kernel.Approximate;
    Kernel.make ~b:2 Kernel.Td_only;
    Kernel.make ~b:2 (Kernel.Tfrc 4.);
  ]

(* A deterministic mixed grid: log-spaced p, cycling rtt, both window
   regimes (tiny, moderate, unlimited). *)
let mixed_columns n =
  let c = Columns.create n in
  let wm_cycle = [| 2.; 8.; 1024.; Columns.unlimited_wm |] in
  for i = 0 to n - 1 do
    let fi = float_of_int (i mod 89) /. 88. in
    let p = 10. ** (-5. +. (4.5 *. fi)) in
    let rtt = 0.01 +. (0.5 *. (float_of_int (i mod 7) /. 6.)) in
    Columns.set c i ~p ~rtt ~t0:(4. *. rtt) ~wm:wm_cycle.(i mod 4)
  done;
  c

(* --- Engine: jobs-independence ------------------------------------------- *)

let test_jobs_identity () =
  let n = 1000 in
  let c = mixed_columns n in
  List.iter
    (fun kernel ->
      let reference = Engine.run ~jobs:1 ~chunk:7 kernel c in
      List.iter
        (fun jobs ->
          let out = Engine.run ~jobs ~chunk:7 kernel c in
          for i = 0 to n - 1 do
            if not (bits_eq (Float.Array.get reference i) (Float.Array.get out i))
            then
              Alcotest.failf "%s: jobs=%d differs from jobs=1 at row %d"
                (Kernel.name kernel) jobs i
          done)
        [ 2; 4; 2000 ])
    all_models

let test_chunk_larger_than_rows () =
  let n = 5 in
  let c = mixed_columns n in
  let kernel = Kernel.make ~b:2 Kernel.Full in
  let a = Engine.run ~jobs:4 ~chunk:100000 kernel c in
  let b = Engine.run ~jobs:1 kernel c in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "same bits" true
      (bits_eq (Float.Array.get a i) (Float.Array.get b i))
  done;
  (* More workers than rows: every row still evaluated exactly once. *)
  let d = Engine.run ~jobs:16 ~chunk:1 kernel c in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "jobs > rows same bits" true
      (bits_eq (Float.Array.get d i) (Float.Array.get b i))
  done

let test_empty_and_single_row () =
  let kernel = Kernel.make ~b:2 Kernel.Approximate in
  let empty = Engine.run ~jobs:4 kernel (Columns.create 0) in
  Alcotest.(check int) "empty output" 0 (Float.Array.length empty);
  let c = Columns.create 1 in
  Columns.set c 0 ~p:0.02 ~rtt:0.1 ~t0:0.4 ~wm:32.;
  let out = Engine.run ~jobs:4 kernel c in
  let expected = Kernel.scalar_reference kernel ~p:0.02 ~rtt:0.1 ~t0:0.4 ~wm:32. in
  Alcotest.(check bool) "single row matches scalar" true
    (bits_eq expected (Float.Array.get out 0))

(* --- Scan ------------------------------------------------------------------ *)

let check_rejects ~expect c =
  let kernel = Kernel.make ~b:2 Kernel.Full in
  let out = Float.Array.make (Columns.length c) 0. in
  match Engine.run_into kernel c out with
  | () -> Alcotest.failf "scan accepted a bad column (wanted %S)" expect
  | exception Invalid_argument msg -> Alcotest.(check string) "message" expect msg

let bad_row_columns ~at ~p ~rtt ~t0 ~wm =
  let c = mixed_columns 10 in
  (* Bypass [Columns.set]'s wm <= 0 remapping so the scan sees the raw
     adversarial values. *)
  Float.Array.set c.Columns.p at p;
  Float.Array.set c.Columns.rtt at rtt;
  Float.Array.set c.Columns.t0 at t0;
  Float.Array.set c.Columns.wm at wm;
  c.Columns.dirty <- true;
  c

let test_scan_messages () =
  check_rejects ~expect:"batch row 3: Params: rtt must be positive"
    (bad_row_columns ~at:3 ~p:0.1 ~rtt:Float.nan ~t0:1. ~wm:2.);
  check_rejects ~expect:"batch row 0: Params: t0 must be positive"
    (bad_row_columns ~at:0 ~p:0.1 ~rtt:0.1 ~t0:(-0.) ~wm:2.);
  check_rejects ~expect:"batch row 9: Params: wm must be >= 1"
    (bad_row_columns ~at:9 ~p:0.1 ~rtt:0.1 ~t0:1. ~wm:0.5);
  check_rejects
    ~expect:
      "batch row 4: batch: wm exceeds the unlimited-window sentinel (use wm \
       <= 0 for unlimited)"
    (bad_row_columns ~at:4 ~p:0.1 ~rtt:0.1 ~t0:1. ~wm:Float.infinity);
  check_rejects ~expect:"batch row 5: batch: wm must be a whole number of packets"
    (bad_row_columns ~at:5 ~p:0.1 ~rtt:0.1 ~t0:1. ~wm:1.5);
  check_rejects ~expect:"batch row 7: loss probability p=1 outside (0, 1)"
    (bad_row_columns ~at:7 ~p:1. ~rtt:0.1 ~t0:1. ~wm:2.)

let test_scan_first_bad_row () =
  (* Two bad rows: the scan must report the earlier one, and the field
     order within a row is rtt before p (the scalar validation order). *)
  let c = bad_row_columns ~at:6 ~p:Float.nan ~rtt:0.1 ~t0:1. ~wm:2. in
  Float.Array.set c.Columns.rtt 2 (-1.);
  Float.Array.set c.Columns.p 2 Float.nan;
  match Scan.validate c with
  | Error { Scan.row = 2; field = "rtt"; message } ->
      Alcotest.(check string) "message" "Params: rtt must be positive" message
  | Error { Scan.row; field; _ } ->
      Alcotest.failf "reported row %d field %s, wanted row 2 field rtt" row field
  | Ok () -> Alcotest.fail "scan accepted bad columns"

let test_validation_caching () =
  let c = mixed_columns 50 in
  Alcotest.(check bool) "fresh columns are dirty" true c.Columns.dirty;
  let kernel = Kernel.make ~b:2 Kernel.Approximate in
  let _ = Engine.run kernel c in
  Alcotest.(check bool) "scan cleared dirty" false c.Columns.dirty;
  (* Mutating a row re-arms the scan: a now-invalid row must be caught
     by the next run, not served from the cached verdict. *)
  Columns.set c 10 ~p:Float.nan ~rtt:0.1 ~t0:1. ~wm:2.;
  Alcotest.(check bool) "set re-dirtied" true c.Columns.dirty;
  let out = Float.Array.make 50 0. in
  match Engine.run_into kernel c out with
  | () -> Alcotest.fail "stale validation accepted a NaN row"
  | exception Invalid_argument _ -> ()

(* --- Kernel vs scalar ------------------------------------------------------ *)

let test_kernel_matches_scalar_grid () =
  let n = 356 in
  let c = mixed_columns n in
  List.iter
    (fun kernel ->
      let out = Engine.run kernel c in
      for i = 0 to n - 1 do
        let p, rtt, t0, wm = Columns.row c i in
        let expected = Kernel.scalar_reference kernel ~p ~rtt ~t0 ~wm in
        if not (bits_eq expected (Float.Array.get out i)) then
          Alcotest.failf "%s: row %d (p=%h rtt=%h t0=%h wm=%h): %h <> %h"
            (Kernel.name kernel) i p rtt t0 wm (Float.Array.get out i) expected
      done)
    all_models

let test_subnormal_p_matches_scalar () =
  let c = Columns.create 3 in
  Columns.set c 0 ~p:0x1p-1074 ~rtt:0.2 ~t0:2. ~wm:32.;
  Columns.set c 1 ~p:0x1p-1022 ~rtt:0.2 ~t0:2. ~wm:0.;
  Columns.set c 2 ~p:1e-300 ~rtt:1e300 ~t0:1e300 ~wm:8.;
  List.iter
    (fun kernel ->
      let out = Engine.run kernel c in
      for i = 0 to 2 do
        let p, rtt, t0, wm = Columns.row c i in
        let expected = Kernel.scalar_reference kernel ~p ~rtt ~t0 ~wm in
        if not (bits_eq expected (Float.Array.get out i)) then
          Alcotest.failf "%s: subnormal row %d: %h <> %h" (Kernel.name kernel) i
            (Float.Array.get out i) expected
      done)
    all_models

(* --- Inverse ---------------------------------------------------------------- *)

let test_loss_budget_matches_scalar () =
  let n = 40 in
  let c = mixed_columns n in
  let rates = Float.Array.make n 0. in
  for i = 0 to n - 1 do
    (* A mix of attainable targets, unattainable ones, and invalid
       (non-positive / NaN) targets that must map to the NaN sentinel. *)
    let r =
      match i mod 4 with
      | 0 -> 5. +. float_of_int i
      | 1 -> 1e12
      | 2 -> 0.
      | _ -> Float.nan
    in
    Float.Array.set rates i r
  done;
  let out = Engine.loss_budget ~jobs:3 ~chunk:7 ~b:2 c ~rates in
  for i = 0 to n - 1 do
    let _, rtt, t0, wm = Columns.row c i in
    let rate = Float.Array.get rates i in
    let expected =
      if not (rate > 0.) then Float.nan
      else
        let params =
          Pftk_core.Params.make ~b:2 ~wm:(Columns.wm_to_int wm) ~rtt ~t0 ()
        in
        match Pftk_core.Inverse.loss_budget params ~rate with
        | Some p -> p
        | None -> Float.nan
    in
    if not (bits_eq expected (Float.Array.get out i)) then
      Alcotest.failf "row %d: loss budget %h <> scalar %h" i
        (Float.Array.get out i) expected
  done

(* --- serve CLI -------------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_serve ?(flags = "") queries =
  write_file "serve_q.txt" queries;
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/pftk.exe serve --batch --file serve_q.txt %s \
          1>serve_out.txt 2>serve_err.txt"
         flags)
  in
  (code, read_file "serve_out.txt", read_file "serve_err.txt")

(* `pftk serve --help` must state the units of the protocol: the four
   input columns (p dimensionless, rtt/t0 seconds, wm packets) and the
   packets-per-second output.  Pinned so a doc rewrite cannot silently
   drop the units contract (ISSUE: units discrepancies between
   conventions are exactly what the dimensional-analysis pass exists to
   keep explicit). *)
let test_serve_help_documents_units () =
  let code =
    Sys.command
      "../bin/pftk.exe serve --help=plain 1>serve_help.txt 2>/dev/null"
  in
  Alcotest.(check int) "--help exits 0" 0 code;
  (* Cmdliner reflows the doc paragraph, so collapse all whitespace
     runs (including the wrap newlines) before substring matching. *)
  let help =
    String.concat " "
      (String.split_on_char '\n' (read_file "serve_help.txt")
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter (fun w -> w <> ""))
  in
  let contains needle =
    let n = String.length needle and h = String.length help in
    let rec go i = i + n <= h && (String.sub help i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "help mentions %S" needle)
        true (contains needle))
    [
      "loss probability (dimensionless";
      "rtt and t0 are seconds";
      "wm is packets";
      "packets per second";
    ]

let test_serve_mixed_stream () =
  let code, out, err =
    run_serve
      "0.02 0.1 0.4 32\n\
       not a query\n\
       \n\
       0.02 -1 0.4 32\n\
       0.02 0.1 0.4 1.5\n\
       0.01 0.2 0.8 0\n"
  in
  Alcotest.(check int) "exit 0 when some lines succeed" 0 code;
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one output line per input line" 6 (List.length lines);
  List.iteri
    (fun i line ->
      match i with
      | 0 | 5 ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d is a rate" i)
            true
            (match float_of_string_opt line with
            | Some v -> v > 0.
            | None -> false)
      | _ ->
          Alcotest.(check string) (Printf.sprintf "line %d is the sentinel" i)
            "nan" line)
    lines;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~sub:needle err))
    [
      "pftk serve: line 2: expected 4 fields (p rtt t0 wm), got 3";
      "pftk serve: line 3: empty line";
      "pftk serve: line 4: Params: rtt must be positive";
      "pftk serve: line 5: batch: wm must be a whole number of packets";
    ]

let test_serve_all_bad_exits_nonzero () =
  let code, out, _err = run_serve "bad\nworse\n" in
  Alcotest.(check int) "exit 1 when every line fails" 1 code;
  Alcotest.(check string) "all sentinels" "nan\nnan\n" out

let test_serve_empty_stream () =
  let code, out, err = run_serve "" in
  Alcotest.(check int) "empty stream exits 0" 0 code;
  Alcotest.(check string) "no output" "" out;
  Alcotest.(check string) "no errors" "" err

let test_serve_overlong_line () =
  let long = String.make 5000 '1' in
  let code, out, err = run_serve (long ^ "\n0.02 0.1 0.4 32\n") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "overlong line diagnosed with its length" true
    (contains ~sub:"line 1: line exceeds 4096 bytes (got 5000)" err);
  Alcotest.(check bool) "sentinel then rate" true
    (match String.split_on_char '\n' (String.trim out) with
    | [ "nan"; rate ] -> float_of_string_opt rate <> None
    | _ -> false)

(* The cap is inclusive: a line of exactly [max_line_bytes] bytes is a
   valid query; one byte more is rejected without being parsed. *)
let test_serve_line_cap_boundary () =
  let cap = Pftk_batch.Serve.max_line_bytes in
  let pad query n = query ^ String.make (n - String.length query) ' ' in
  let at_cap = pad "0.02 0.1 0.4 32" cap in
  let over_cap = pad "0.02 0.1 0.4 32" (cap + 1) in
  let code, out, err = run_serve (at_cap ^ "\n" ^ over_cap ^ "\n") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "line at the cap is answered" true
    (match String.split_on_char '\n' (String.trim out) with
    | [ rate; "nan" ] -> float_of_string_opt rate <> None
    | _ -> false);
  Alcotest.(check bool) "line past the cap is diagnosed" true
    (contains
       ~sub:(Printf.sprintf "line 2: line exceeds %d bytes (got %d)" cap (cap + 1))
       err);
  Alcotest.(check bool) "line at the cap is not diagnosed" true
    (not (contains ~sub:"line 1" err))

let test_serve_batch_equals_scalar () =
  let buf = Buffer.create 4096 in
  for i = 0 to 1999 do
    let fi = float_of_int i /. 1999. in
    Buffer.add_string buf
      (Printf.sprintf "%.17g %.17g %.17g %d\n"
         (10. ** (-5. +. (4.8 *. fi)))
         (0.01 +. fi)
         (0.04 +. (4. *. fi))
         (match i mod 3 with 0 -> 0 | 1 -> 8 | _ -> 1024))
  done;
  let queries = Buffer.contents buf in
  List.iter
    (fun model ->
      let _, batch, _ = run_serve ~flags:("--model " ^ model) queries in
      let _, scalar, _ =
        run_serve ~flags:("--model " ^ model ^ " --scalar") queries
      in
      Alcotest.(check string) (model ^ ": batch = scalar stream") scalar batch)
    [ "full"; "full-approx-q"; "approximate"; "td-only"; "tfrc" ]

(* --- Stream.run's reader ---------------------------------------------------- *)

let full = Kernel.make ~b:2 Kernel.Full

(* Every framing case of the protocol: CRLF lines, blank lines, a line
   of exactly [max_line_bytes] (its '\r' included), one a byte longer,
   a parse reject and a final line with no newline. *)
let framing_fixture =
  let cap = Serve.max_line_bytes in
  let pad query n = query ^ String.make (n - String.length query) ' ' in
  String.concat ""
    [
      "0.02 0.1 0.4 32\r\n";
      "\n";
      "  \r\n";
      "0.01 0.2 0.8 0\r\n";
      pad "0.05 0.3 1.2 8" (cap - 1) ^ "\r\n";
      pad "0.02 0.1 0.4 32" (cap + 1) ^ "\n";
      "bad\r\n";
      "0.03 0.15 0.6 16";
    ]

(* What the line-at-a-time reader ([input_line]) answered for the
   fixture, at every chunk and jobs value. *)
let framing_stdout =
  "50.854555400963768\n\
   nan\n\
   nan\n\
   38.923227685621768\n\
   8.9047064171355732\n\
   nan\n\
   nan\n\
   25.841255070005136\n"

let framing_stderr =
  "pftk serve: line 2: empty line\n\
   pftk serve: line 3: empty line\n\
   pftk serve: line 6: line exceeds 4096 bytes (got 4097)\n\
   pftk serve: line 7: expected 4 fields (p rtt t0 wm), got 1\n"

(* Runs [Stream.run] with [ic] as input, answers and diagnostics into
   files; returns the outcome, stdout and stderr. *)
let stream_to_files ~jobs ~chunk ic =
  let oc = open_out_bin "stream_out.txt" and err = open_out_bin "stream_err.txt" in
  let o =
    Fun.protect
      ~finally:(fun () ->
        close_out oc;
        close_out err)
      (fun () -> Stream.run ~jobs ~chunk full ic oc ~err)
  in
  (o, read_file "stream_out.txt", read_file "stream_err.txt")

(* [text] cut into seeded random pieces of 1-97 bytes, with a cut
   between every '\r' and the byte after it. *)
let random_pieces ~seed text =
  let rng = Random.State.make [| seed |] in
  let n = String.length text in
  let rec go acc pos =
    if pos >= n then List.rev acc
    else
      let len = min (n - pos) (1 + Random.State.int rng 97) in
      let len =
        match String.index_from_opt text pos '\r' with
        | Some r when r < pos + len -> r + 1 - pos
        | _ -> len
      in
      go (String.sub text pos len :: acc) (pos + len)
  in
  go [] 0

(* The fixture written into a pipe piece by piece, with a short pause
   after each write so the server's reads (almost always) see the same
   cuts; the output must not depend on them either way. *)
let stream_through_pipe ~jobs ~chunk ~seed text =
  let r, w = Unix.pipe ~cloexec:true () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr r in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> stream_to_files ~jobs ~chunk ic))
  in
  List.iter
    (fun piece ->
      ignore (Unix.write_substring w piece 0 (String.length piece));
      Unix.sleepf 0.0005)
    (random_pieces ~seed text);
  Unix.close w;
  Domain.join server

let test_stream_framing_invariance () =
  write_file "framing.txt" framing_fixture;
  List.iter
    (fun (chunk, jobs) ->
      let check how (o, out, err) =
        let label what = Printf.sprintf "%s, chunk %d, jobs %d: %s" how chunk jobs what in
        Alcotest.(check string) (label "stdout") framing_stdout out;
        Alcotest.(check string) (label "stderr") framing_stderr err;
        Alcotest.(check (pair int int)) (label "total, failed") (8, 4)
          (o.Stream.total, o.Stream.failed)
      in
      let ic = open_in_bin "framing.txt" in
      check "file"
        (Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> stream_to_files ~jobs ~chunk ic));
      check "pipe"
        (stream_through_pipe ~jobs ~chunk ~seed:(chunk + jobs) framing_fixture))
    [ (1, 1); (1, 2); (3, 1); (3, 2); (65536, 1); (65536, 2) ]

(* The protocol is interactive: a client that writes one query and
   waits for its answer gets it while the stream is still open.  Each
   answer must arrive within 5 s of its query. *)
let test_stream_answers_before_eof () =
  let q_r, q_w = Unix.pipe ~cloexec:true () in
  let a_r, a_w = Unix.pipe ~cloexec:true () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr q_r
        and oc = Unix.out_channel_of_descr a_w
        and err = open_out_bin "interactive_err.txt" in
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            close_out oc;
            close_out err)
          (fun () -> Stream.run ~jobs:2 full ic oc ~err))
  in
  let answers = Buffer.create 256 and bytes = Bytes.create 256 in
  let newlines () =
    String.fold_left (fun n ch -> if ch = '\n' then n + 1 else n) 0
      (Buffer.contents answers)
  in
  let give_up msg =
    Unix.close q_w;
    ignore (Domain.join server);
    Unix.close a_r;
    Alcotest.fail msg
  in
  let await_lines n =
    let deadline = Unix.gettimeofday () +. 5. in
    while newlines () < n do
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then give_up (Printf.sprintf "no answer %d within 5 s" n);
      match Unix.select [ a_r ] [] [] left with
      | [], _, _ -> give_up (Printf.sprintf "no answer %d within 5 s" n)
      | _ ->
          let k = Unix.read a_r bytes 0 (Bytes.length bytes) in
          if k = 0 then give_up "answers ended early";
          Buffer.add_subbytes answers bytes 0 k
    done
  in
  let queries = [ "0.02 0.1 0.4 32\n"; "0.02 -1 0.4 32\n"; "0.01 0.2 0.8 0\n" ] in
  List.iteri
    (fun i q ->
      ignore (Unix.write_substring q_w q 0 (String.length q));
      await_lines (i + 1))
    queries;
  Unix.close q_w;
  let o = Domain.join server in
  Unix.close a_r;
  let rate ~p ~rtt ~t0 ~wm =
    Serve.format_rate (Kernel.scalar_reference full ~p ~rtt ~t0 ~wm)
  in
  Alcotest.(check string) "answers"
    (String.concat "\n"
       [
         rate ~p:0.02 ~rtt:0.1 ~t0:0.4 ~wm:32.;
         Serve.sentinel;
         rate ~p:0.01 ~rtt:0.2 ~t0:0.8 ~wm:Columns.unlimited_wm;
         "";
       ])
    (Buffer.contents answers);
  Alcotest.(check (pair int int)) "total, failed" (3, 1) (o.Stream.total, o.Stream.failed);
  Alcotest.(check string) "diagnostic"
    "pftk serve: line 2: Params: rtt must be positive\n"
    (read_file "interactive_err.txt")

(* A 4 MiB line with no newline: one sentinel, a diagnostic with its
   exact length, exit 1 -- and the reader keeps only a capped prefix
   of it, so serving it allocates far less than the line itself. *)
let test_stream_newline_free_input () =
  let n = 4 * 1024 * 1024 in
  let code, out, err = run_serve (String.make n '7') in
  Alcotest.(check int) "exit 1: the only line failed" 1 code;
  Alcotest.(check string) "one sentinel" "nan\n" out;
  Alcotest.(check string) "exact length"
    (Printf.sprintf "pftk serve: line 1: line exceeds 4096 bytes (got %d)\n" n)
    err;
  let ic = open_in_bin "serve_q.txt" in
  let before = Gc.allocated_bytes () in
  let o, _, _ =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> stream_to_files ~jobs:1 ~chunk:Engine.default_chunk ic)
  in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check (pair int int)) "total, failed" (1, 1) (o.Stream.total, o.Stream.failed);
  if allocated > float_of_int (n / 4) then
    Alcotest.failf "serving a %d-byte line allocated %.0f bytes" n allocated

let () =
  Alcotest.run "pftk_batch"
    [
      ( "engine",
        [
          case "jobs-identity" test_jobs_identity;
          case "chunk larger than rows" test_chunk_larger_than_rows;
          case "empty and single row" test_empty_and_single_row;
          case "validation caching" test_validation_caching;
        ] );
      ( "scan",
        [
          case "scalar-exact messages" test_scan_messages;
          case "first bad row wins" test_scan_first_bad_row;
        ] );
      ( "kernel",
        [
          case "matches scalar on mixed grid" test_kernel_matches_scalar_grid;
          case "subnormal and extreme rows" test_subnormal_p_matches_scalar;
        ] );
      ("inverse", [ case "loss budget matches scalar" test_loss_budget_matches_scalar ]);
      ( "serve",
        [
          case "mixed stream contract" test_serve_mixed_stream;
          case "--help documents units" test_serve_help_documents_units;
          case "all-bad stream exits 1" test_serve_all_bad_exits_nonzero;
          case "empty stream" test_serve_empty_stream;
          case "overlong line" test_serve_overlong_line;
          case "line-cap boundary" test_serve_line_cap_boundary;
          case "batch stream = scalar stream" test_serve_batch_equals_scalar;
        ] );
      ( "stream",
        [
          case "framing invariance" test_stream_framing_invariance;
          case "answers before EOF" test_stream_answers_before_eof;
          case "newline-free input" test_stream_newline_free_input;
        ] );
    ]
