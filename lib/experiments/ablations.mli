(** Ablations of the design choices DESIGN.md calls out: the exact vs
    approximate Q-hat, eq. (32) vs eq. (33), the loss process, stack
    quirks, TCP flavor, recovery style, queue discipline, endogenous
    cross-traffic loss, generalized AIMD and delayed ACKs. *)

val print : Format.formatter -> unit
(** Run every ablation and print its table under one heading.  The
    simulations use fixed seeds, so the output is deterministic. *)
