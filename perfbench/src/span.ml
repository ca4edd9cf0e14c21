(* In-memory span recorder, safe to call from any domain.

   Each domain appends to its own buffer (registered once under a lock),
   so recording never contends.  A span carries its name, monotonic start
   and end, parent span, op id, the recording domain, a work count the
   caller supplies, and the minor words that domain allocated inside the
   span.  Nothing is written until the benchmark asks for the spans at
   the end. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  op : int;
  name : string;
  domain : int;
  start : int64;  (** ns, monotonic clock *)
  stop : int64;
  words : float;  (** minor words allocated by [domain] inside the span *)
  count : int;  (** work done, in the unit of the span's layer *)
}

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9
let enabled = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let buffers : t list ref list ref = ref []

(* Per domain: its span buffer and the id of its innermost open span. *)
let state =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      Mutex.protect lock (fun () -> buffers := buf :: !buffers);
      (buf, ref 0))

let current () = !(snd (Domain.DLS.get state))

let record ~id ~parent ~op ~name ~start ~stop ~words ~count =
  let buf, _ = Domain.DLS.get state in
  let domain = (Domain.self () :> int) in
  buf := { id; parent; op; name; domain; start; stop; words; count } :: !buf

(* [count] maps the call's result to the work it did; it runs after the
   clock and the allocation counter are read, so it is not measured. *)
let with_span ?(op = 0) ?parent ?(count = fun _ -> 0) name f =
  if not !enabled then f ()
  else begin
    let _, cur = Domain.DLS.get state in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match parent with Some p -> p | None -> !cur in
    let saved = !cur in
    cur := id;
    let w0 = Gc.minor_words () in
    let start = now_ns () in
    match f () with
    | v ->
        let stop = now_ns () in
        let words = Gc.minor_words () -. w0 in
        cur := saved;
        record ~id ~parent ~op ~name ~start ~stop ~words ~count:(count v);
        v
    | exception e ->
        let stop = now_ns () in
        let words = Gc.minor_words () -. w0 in
        cur := saved;
        record ~id ~parent ~op ~name ~start ~stop ~words ~count:0;
        raise e
  end

let reset () =
  Mutex.protect lock (fun () -> List.iter (fun b -> b := []) !buffers)

let all () =
  Mutex.protect lock (fun () -> List.concat_map (fun b -> !b) !buffers)

(* --- analysis ----------------------------------------------------------- *)

(* Wall-clock attribution.  Walk the span boundaries in time order; at
   each instant the time goes, in equal shares, to the spans that are
   open and have no open child (on any domain).  A root span's own share
   is "unattributed".  The shares of all spans plus the unattributed
   time add up to the root's wall clock exactly, with any number of
   domains running. *)
let attribute spans =
  let evs =
    List.concat_map (fun s -> [ (s.start, 1, s); (s.stop, 0, s) ]) spans
    |> List.sort (fun (t1, k1, _) (t2, k2, _) ->
           match Int64.compare t1 t2 with 0 -> compare k1 k2 | c -> c)
  in
  let share = Hashtbl.create 64 in
  let add name dt =
    Hashtbl.replace share name
      (dt +. Option.value ~default:0. (Hashtbl.find_opt share name))
  in
  let open_ = Hashtbl.create 64 in
  let kids = Hashtbl.create 64 in
  let leaves = Hashtbl.create 16 in
  let nkids id = Option.value ~default:0 (Hashtbl.find_opt kids id) in
  let last = ref 0L in
  List.iter
    (fun (t, kind, s) ->
      let n = Hashtbl.length leaves in
      (if n > 0 then
         let dt = seconds_between !last t /. float_of_int n in
         Hashtbl.iter (fun _ (l : t) -> add l.name dt) leaves);
      last := t;
      if kind = 1 then begin
        Hashtbl.replace open_ s.id s;
        if nkids s.id = 0 then Hashtbl.replace leaves s.id s;
        if Hashtbl.mem open_ s.parent then begin
          Hashtbl.replace kids s.parent (nkids s.parent + 1);
          Hashtbl.remove leaves s.parent
        end
      end
      else begin
        Hashtbl.remove open_ s.id;
        Hashtbl.remove leaves s.id;
        if Hashtbl.mem open_ s.parent then begin
          let k = nkids s.parent - 1 in
          Hashtbl.replace kids s.parent k;
          if k = 0 then
            Hashtbl.replace leaves s.parent (Hashtbl.find open_ s.parent)
        end
      end)
    evs;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) share []
  |> List.sort compare

let share_of shares name = Option.value ~default:0. (List.assoc_opt name shares)

let named name spans = List.filter (fun s -> s.name = name) spans
let duration s = seconds_between s.start s.stop
let total_duration spans = List.fold_left (fun a s -> a +. duration s) 0. spans
let total_count spans = List.fold_left (fun a s -> a + s.count) 0 spans
let total_words spans = List.fold_left (fun a s -> a +. s.words) 0. spans

let to_json s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"op":%d,"name":"%s","domain":%d,"start_ns":%Ld,"end_ns":%Ld,"minor_words":%.0f,"count":%d}|}
    s.id s.parent s.op s.name s.domain s.start s.stop s.words s.count
