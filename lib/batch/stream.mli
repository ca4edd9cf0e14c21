(** Drive the batch engine from a newline-delimited query stream (the
    backend of [pftk serve --batch]).

    Lines are buffered up to [chunk], packed into columns (rejected
    lines keep an empty slot), evaluated in one engine pass, and
    emitted strictly 1:1 and in order: every input line yields exactly
    one output line — a rate or {!Serve.sentinel}.  Rejections go to
    [err] as they are encountered (see {!Serve} for the message
    contract); the stream never aborts on bad input.

    Lines end at ['\n'] only, as with [input_line]: a ['\r'] stays in
    the line (the parser tolerates it) and a final line without a
    newline counts.  Only the first {!Serve.max_line_bytes} bytes of a
    line are stored; a longer one is rejected with its full length.

    When answers are written: the pending lines are answered when
    [chunk] of them have arrived, and whenever a read of [ic] returns
    less than it asked for, meaning the input paused (or ended); the
    second case also flushes [oc] and [err].  So a client on a pipe or
    terminal gets each answer as soon as it stops writing, while a
    regular file, which reads in full blocks until EOF, keeps
    [chunk]-sized batches.  [run] reads [ic] in blocks of at least the
    runtime's channel buffer, so each read of [ic] is one read of its
    descriptor; [ic] should be used by [run] alone. *)

type outcome = { total : int; failed : int }

val run :
  ?jobs:int ->
  ?chunk:int ->
  ?scalar:bool ->
  Kernel.t ->
  in_channel ->
  out_channel ->
  err:out_channel ->
  outcome
(** [scalar:true] answers each accepted line with the guarded
    per-row scalar computation instead of the batch kernel — same
    protocol, used to cross-check batch output byte-for-byte. *)
