(** Process-wide metric registry: counters, wall-clock timers and bounded
    histograms, behind a single global enable flag.

    Design constraints, in order:

    - {b Near-zero cost when disabled.} Every record operation is one
      mutable-bool load and a branch; no allocation, no hashing. The query
      path of the simulator calls these on every routed identifier, so this
      is the default state (metrics start disabled).
    - {b Create once, record often.} [counter]/[timer]/[histogram] hash the
      name and are meant to be called at module initialization; the returned
      handle is then recorded against directly. Calling a constructor twice
      with the same name returns the same handle.
    - {b Snapshots, not streams.} [snapshot ()] renders the whole registry
      as a {!Json.t} for the benchmark emitters; [reset ()] zeroes every
      metric in place (handles stay valid) so one process can measure many
      benchmark sections independently. *)

type counter
type timer
type histogram
type gauge

(** {1 Global switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Counters} *)

val counter : string -> counter
(** Find-or-create the counter registered under [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges}

    Last-write-wins point-in-time values (a load-imbalance ratio, a queue
    depth). Unset gauges hold [nan] and render as [null] in snapshots. *)

val gauge : string -> gauge
(** Find-or-create the gauge registered under [name]. *)

val wall_gauge : string -> gauge
(** Find-or-create a {e wall-clock} gauge: same semantics as {!gauge},
    but snapshotted under the ["wall"] subtree alongside timers because
    its readings derive from real time (throughput, rates) and are not
    reproducible across runs. Baseline comparisons skip the subtree. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
(** [nan] until first set (or after {!reset}). *)

(** {1 Timers}

    Wall-clock ([Unix.gettimeofday]) accumulation; disabled mode runs the
    thunk with no clock reads. *)

val timer : string -> timer

val time : timer -> (unit -> 'a) -> 'a
(** Runs the thunk, attributing its wall-clock time to the timer. The clock
    is still stopped if the thunk raises. *)

val timer_count : timer -> int
val timer_total_ms : timer -> float

(** {1 Histograms}

    Fixed-bucket histograms: memory is bounded regardless of how many
    observations are recorded. The default bucket boundaries are exact for
    small non-negative integers (unit-width up to 64) and exponential
    beyond (128, 256, … 2{^20}), which suits hop counts, message counts and
    millisecond latencies. Mean/min/max are exact; percentiles are resolved
    to a bucket upper bound. *)

val histogram : ?bounds:float array -> string -> histogram
(** Find-or-create. [bounds] (strictly increasing bucket upper bounds) is
    only consulted on first creation; an existing histogram keeps the
    boundaries it was created with. *)

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit

val hist_count : histogram -> int
val hist_mean : histogram -> float
(** [nan] when empty. *)

val hist_min : histogram -> float
val hist_max : histogram -> float

val hist_percentile : histogram -> float -> float
(** [hist_percentile h p] for [p] in [0, 100]: the smallest bucket upper
    bound covering at least [p]% of observations ([hist_max] for the
    overflow bucket; [nan] when empty). *)

(** {1 Registry} *)

val reset : unit -> unit
(** Zero every registered metric in place. Handles remain valid. *)

val snapshot : unit -> Json.t
(** The whole registry as
    [{"counters": {..}, "gauges": {..}, "histograms": {..},
      "wall": {"timers": {..}, "gauges": {..}}}],
    with metric names sorted for deterministic output. Histograms render
    count, mean, min, max and p50/p90/p99; unset gauges render as [null],
    while unset {!wall_gauge}s are omitted.
    Everything under ["wall"] (timers, {!wall_gauge}s) carries real-time
    readings and is excluded from baseline bit-identity comparisons. *)
