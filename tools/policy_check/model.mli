(** Exhaustive small-scope model checking of {!Memsim.Level}.

    Two prongs per (policy, associativity) configuration, both on a
    single-set level so the whole metadata state is one set's worth:

    {b State enumeration} — breadth-first enumeration of every
    reachable replacement-metadata state (quotiented by block renaming,
    which is exact because policy updates depend only on way indices),
    carrying a representative engine snapshot per state and checking,
    state by state against {!Spec}: transition conformance, victim
    validity, promote idempotence, hint soundness (the promote a hint
    hit skips is a no-op), snapshot/restore bijectivity, and the LRU
    rank-permutation invariant.

    {b Sequence differential} — bounded exploration of access
    sequences (blocks x kinds x words x phases) driving the per-event
    path, the chunked path and the emitting chunked path in lockstep,
    comparing full snapshots and miss streams after every event,
    replaying every prefix as one chunk through a fresh level (the
    fused [fast_span] fast path), and auditing write-back conservation
    and fetch discipline against the line introspection hooks.  LRU
    additionally gets a stack-inclusion run at half associativity. *)

type report = {
  policy : Memsim.Level.policy;
  ways : int;
  states : int;        (** distinct reachable metadata states *)
  transitions : int;   (** state-enumeration transitions checked *)
  sequences : int;     (** sequence-differential events explored *)
  events : int;        (** total events driven through engines *)
  idem_exploited : bool;
      (** the fused fast path runs for this policy (skips repeat
          promotes), so idempotence is a safety obligation *)
  idem_violations : int;
      (** spec states where promote is not idempotent — must be 0 when
          [idem_exploited], and is informative (expected non-zero)
          for the QLRU variants *)
  findings : Check.Finding.t list;
}

val check :
  ?mutate:Spec.mutation ->
  ?budget:int ->
  Memsim.Level.policy ->
  ways:int ->
  report
(** Run both prongs.  [budget] bounds the sequence-differential node
    count (default 4000); the state enumeration is always exhaustive.
    [mutate] seeds a bug into the {!Spec} side — a correct checker
    must then report findings (negative testing). *)

val certificate :
  ?columns:Obs.Json.t list ->
  ?column_findings:Check.Finding.t list ->
  report list ->
  Obs.Json.t
(** Machine-readable certificate consumed by CI: per-configuration
    state/transition counts and the status of each verified property,
    plus the column-engine entries ({!Column.certificate_entry}) whose
    [column_findings] also decide the overall status. *)
