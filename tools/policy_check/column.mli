(** Bounded exhaustive differential of the direct-mapped column engine
    ({!Memsim.Cache.column_access_chunk}) against per-config caches
    driven one event at a time by {!Memsim.Cache.access}.

    A three-size column (8-byte blocks; 16-, 32- and 64-byte caches)
    is driven through every sequence of up to [depth] events over
    three memory blocks x two words x {read, write, alloc-write by the
    mutator; read, write by the collector}.  After each event every member's tags, valid
    masks, dirty bits and counters are compared with the oracle's, and
    every certificate is checked against its definition.  A second
    prong restores the column from another column's state reached over
    a sequence of the same length and continues with every event:
    certificates must not survive a restore. *)

type mutation =
  | Store_on_cert1  (** take the store fast path on certificate 1 *)
  | Keep_cert_on_restore  (** skip forgetting certificates on restore *)

val mutation_label : mutation -> string
val mutation_of_label : string -> mutation option
val all_mutations : mutation list

type report = {
  label : string;     (** "column/<policy>[/no-collector-fow]" *)
  nodes : int;        (** sequences checked (every prefix is one) *)
  fast : int;
      (** of them, those whose last event the certificate settled with
          one lookup — the path under test *)
  restores : int;     (** restore-then-continue cases checked *)
  events : int;       (** events driven through column and oracle *)
  findings : Check.Finding.t list;
}

val configs : (Memsim.Cache.write_miss_policy * bool) list
(** The checked (policy, collector_fetch_on_write) pairs: both
    write-miss policies with the paper's collector setting, and
    write-validate without it. *)

val check :
  ?mutate:mutation ->
  ?depth:int ->
  Memsim.Cache.write_miss_policy ->
  collector_fow:bool ->
  report
(** Run both prongs; [depth] (default 4) bounds sequence length, the
    restore prong explores prefixes up to [depth - 2]. *)

val certificate_entry : report -> Obs.Json.t
