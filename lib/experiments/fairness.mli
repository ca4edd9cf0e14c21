(** TCP-friendliness validation: the end-to-end check of the paper's §I
    motivation.  An equation-paced (TFRC-style) flow shares a drop-tail
    bottleneck with TCP Reno flows; if the PFTK equation is a faithful
    model of Reno, the paced flow's goodput should sit near the Reno
    flows' — high Jain fairness, no starvation in either direction. *)

type scenario = {
  label : string;
  reno_flows : int;
  tfrc_flows : int;
  duration : float;
}

type outcome = {
  scenario : scenario;
  result : Pftk_tcp.Shared_bottleneck.result;
  mean_reno_goodput : float;
  mean_tfrc_goodput : float;  (** 0 when the scenario has no TFRC flows. *)
  friendliness_ratio : float;
      (** mean TFRC goodput / mean Reno goodput; 1.0 is perfectly
          friendly, 0 when not applicable. *)
}

val default_scenarios : scenario list
(** Reno-only baseline (3 flows), 3 Reno + 1 TFRC, 2 Reno + 2 TFRC. *)

val quick_scenarios : scenario list
(** 3 Reno + 1 TFRC over 60 s, for smoke runs. *)

val evaluate : ?seed:int64 -> scenario -> outcome

val generate :
  ?seed:int64 -> ?scenarios:scenario list -> ?jobs:int -> unit -> outcome list
(** [jobs] worker domains evaluate the scenarios in parallel; per-index
    seeds keep the outcomes independent of [jobs]. *)

val print : Format.formatter -> outcome list -> unit
