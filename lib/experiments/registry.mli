(** The paper's artifacts, one entry each, in regeneration order.

    This list is the single source for what `pftk` regenerates: the CLI
    builds one subcommand per entry and `pftk all` runs every entry in
    list order.  Each entry holds its own quick/full parameters, so an
    artifact prints the same bytes whichever front end runs it. *)

type entry = {
  name : string;  (** The `pftk` subcommand. *)
  doc : string;  (** One-line description; names any flag it ignores. *)
  run : seed:int64 -> quick:bool -> jobs:int -> Format.formatter -> unit;
      (** Generate the artifact and print it.  [quick] selects the
          shortened workload; output is independent of [jobs]. *)
}

val all : entry list
(** Table I, Table II, Figs. 1/3/5, Figs. 7-13, the packet-level
    validation sweep, then the extensions (convergence, window
    distribution, sensitivity, fairness, mean-field cross-validation,
    RED stability). *)
