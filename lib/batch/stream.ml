type outcome = { total : int; failed : int }

(* Bytes asked of the channel per read: at least the runtime's 64 KiB
   channel buffer, so every [input] finds that buffer empty and makes
   exactly one read(2).  A read that returns less than this means the
   source had nothing more ready (or hit EOF). *)
let block_bytes = 65536

let run ?(jobs = 1) ?(chunk = Engine.default_chunk) ?(scalar = false) kernel ic
    oc ~err =
  if chunk < 1 then invalid_arg "Batch.Stream.run: chunk must be >= 1";
  let total = ref 0 and failed = ref 0 in
  let buf = Buffer.create (64 * 1024) in
  (* Lines of the current batch, newest first: [Ok q] joins the packed
     columns, [Error] lines keep their slot so output stays 1:1. *)
  let pending = ref [] in
  let npending = ref 0 and nok = ref 0 in
  let flush_batch () =
    if !npending > 0 then begin
      let items = List.rev !pending in
      let cols = Columns.create !nok in
      let j = ref 0 in
      List.iter
        (fun item ->
          match item with
          | Ok (q : Serve.query) ->
              Columns.set cols !j ~p:q.Serve.p ~rtt:q.Serve.rtt ~t0:q.Serve.t0
                ~wm:q.Serve.wm;
              incr j
          | Error () -> ())
        items;
      let out =
        if scalar then begin
          (* Reference mode: the same stream answered by per-row
             guarded scalar calls — the oracle for the CLI's
             batch-vs-scalar byte-identity test. *)
          let o = Float.Array.make !nok 0. in
          let j = ref 0 in
          List.iter
            (fun item ->
              match item with
              | Ok (q : Serve.query) ->
                  Float.Array.set o !j
                    (Kernel.scalar_reference kernel ~p:q.Serve.p
                       ~rtt:q.Serve.rtt ~t0:q.Serve.t0 ~wm:q.Serve.wm);
                  incr j
              | Error () -> ())
            items;
          o
        end
        else Engine.run ~jobs ~chunk kernel cols
      in
      let j = ref 0 in
      List.iter
        (fun item ->
          (match item with
          | Ok _ ->
              Buffer.add_string buf (Serve.format_rate (Float.Array.get out !j));
              incr j
          | Error () -> Buffer.add_string buf Serve.sentinel);
          Buffer.add_char buf '\n')
        items;
      Buffer.output_buffer oc buf;
      Buffer.clear buf;
      pending := [];
      npending := 0;
      nok := 0
    end
  in
  let reject msg =
    incr failed;
    Printf.fprintf err "pftk serve: line %d: %s\n" !total msg;
    pending := Error () :: !pending
  in
  (* One input line of [len] bytes; [line] is its text when [len] is
     within the cap (an overlong line is rejected on its length alone). *)
  let add_line len line =
    incr total;
    (if len > Serve.max_line_bytes then reject (Serve.line_too_long len)
     else
       match Serve.parse_line line with
       | Error msg -> reject msg
       | Ok q -> (
           match
             Scan.check_row ~p:q.Serve.p ~rtt:q.Serve.rtt ~t0:q.Serve.t0
               ~wm:q.Serve.wm
           with
           | Ok () ->
               pending := Ok q :: !pending;
               incr nok
           | Error (_field, message) -> reject message));
    incr npending;
    if !npending >= chunk then flush_batch ()
  in
  let block = Bytes.create block_bytes in
  (* The head of a line that spans reads.  [carry_len] counts all of its
     bytes, but [carry] stores only the first [max_line_bytes]: a longer
     line is rejected on its length, so a newline-free input costs
     bounded memory. *)
  let carry = Buffer.create 256 and carry_len = ref 0 in
  let keep pos len =
    let room = Serve.max_line_bytes - Buffer.length carry in
    if room > 0 then Buffer.add_subbytes carry block pos (min len room);
    carry_len := !carry_len + len
  in
  let end_carried_line () =
    let len = !carry_len in
    add_line len (if len > Serve.max_line_bytes then "" else Buffer.contents carry);
    Buffer.clear carry;
    carry_len := 0
  in
  (* Answer everything pending and push it out: the input has paused. *)
  let drained () =
    flush_batch ();
    flush oc;
    flush err
  in
  (* Lines end at ['\n'] only, as with [input_line]: a ['\r'] stays in
     the line for [Serve.parse_line] to tolerate. *)
  let rec split k start i =
    if i >= k then keep start (k - start)
    else if Bytes.get block i <> '\n' then split k start (i + 1)
    else begin
      (if !carry_len > 0 then begin
         keep start (i - start);
         end_carried_line ()
       end
       else
         let len = i - start in
         add_line len
           (if len > Serve.max_line_bytes then ""
            else Bytes.sub_string block start len));
      split k (i + 1) (i + 1)
    end
  in
  let rec read () =
    let k = input ic block 0 block_bytes in
    if k = 0 then begin
      (* EOF: a final line without a newline still counts. *)
      if !carry_len > 0 then end_carried_line ();
      drained ()
    end
    else begin
      split k 0 0;
      if k < block_bytes then drained ();
      read ()
    end
  in
  read ();
  { total = !total; failed = !failed }
