type query = { p : float; rtt : float; t0 : float; wm : float }

let max_line_bytes = 4096
let sentinel = "nan"
let format_rate r = Printf.sprintf "%.17g" r

let is_space ch = ch = ' ' || ch = '\t' || ch = '\r'

(* Whitespace-separated tokens, allocation-light (no regexp, no
   intermediate list of empty fields). *)
let split_fields line =
  let n = String.length line in
  let rec skip i = if i < n && is_space line.[i] then skip (i + 1) else i in
  let rec tok i = if i < n && not (is_space line.[i]) then tok (i + 1) else i in
  let rec go acc i =
    let i = skip i in
    if i >= n then List.rev acc
    else
      let j = tok i in
      go (String.sub line i (j - i) :: acc) j
  in
  go [] 0

let field_name = [| "p"; "rtt"; "t0"; "wm" |]

let number idx s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "field %d (%s): %S is not a number" (idx + 1)
           field_name.(idx) s)

let ( let* ) = Result.bind

let line_too_long len =
  Printf.sprintf "line exceeds %d bytes (got %d)" max_line_bytes len

let parse_line line =
  if String.length line > max_line_bytes then
    Error (line_too_long (String.length line))
  else
    match split_fields line with
    | [] -> Error "empty line"
    | [ a; b; c; d ] ->
        let* p = number 0 a in
        let* rtt = number 1 b in
        let* t0 = number 2 c in
        let* wm = number 3 d in
        (* wm <= 0 denotes "no receiver limit", the CLI's --wm
           convention; NaN stays NaN and is rejected by the scan. *)
        Ok { p; rtt; t0; wm = (if wm <= 0. then Columns.unlimited_wm else wm) }
    | toks ->
        Error
          (Printf.sprintf "expected 4 fields (p rtt t0 wm), got %d"
             (List.length toks))
