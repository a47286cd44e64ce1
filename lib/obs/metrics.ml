let on = ref false

let enabled () = !on
let enable () = on := true
let disable () = on := false

type counter = { mutable count : int }

type timer = { mutable calls : int; mutable total_s : float }

type histogram = {
  bounds : float array; (* strictly increasing bucket upper bounds *)
  buckets : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable n : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

type gauge = { mutable value : float (* nan = never set *) }

type metric =
  | Counter of counter
  | Timer of timer
  | Histogram of histogram
  | Gauge of gauge
  | Wall_gauge of gauge
      (* Same record as [Gauge], but snapshotted under the wall-clock
         subtree: for readings derived from real time (throughput), which
         are not reproducible across runs and must not leak into baseline
         comparisons. *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Unit-width buckets are exact for hop/message counts; the exponential
   tail keeps latency outliers bounded without losing their magnitude. *)
let default_bounds =
  Array.append
    (Array.init 65 float_of_int)
    (Array.init 14 (fun i -> float_of_int (128 lsl i)))

let register name mk get =
  match Hashtbl.find_opt registry name with
  | Some m -> (
    match get m with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered with another type" name))
  | None ->
    let x = mk () in
    Hashtbl.replace registry name x;
    (match get x with Some x -> x | None -> assert false)

let counter name =
  register name
    (fun () -> Counter { count = 0 })
    (function Counter c -> Some c | _ -> None)

let incr c = if !on then c.count <- c.count + 1
let add c k = if !on then c.count <- c.count + k
let counter_value c = c.count

let timer name =
  register name
    (fun () -> Timer { calls = 0; total_s = 0.0 })
    (function Timer t -> Some t | _ -> None)

let gauge name =
  register name
    (fun () -> Gauge { value = Float.nan })
    (function Gauge g -> Some g | _ -> None)

let wall_gauge name =
  register name
    (fun () -> Wall_gauge { value = Float.nan })
    (function Wall_gauge g -> Some g | _ -> None)

let set_gauge g v = if !on then g.value <- v
let gauge_value g = g.value

let time t f =
  if not !on then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        t.calls <- t.calls + 1;
        t.total_s <- t.total_s +. (Unix.gettimeofday () -. t0))
      f
  end

let timer_count t = t.calls
let timer_total_ms t = t.total_s *. 1000.0

let histogram ?(bounds = default_bounds) name =
  register name
    (fun () ->
      let len = Array.length bounds in
      if len = 0 then invalid_arg "Metrics.histogram: empty bounds";
      for i = 1 to len - 1 do
        if bounds.(i) <= bounds.(i - 1) then
          invalid_arg "Metrics.histogram: bounds must be strictly increasing"
      done;
      Histogram
        {
          bounds = Array.copy bounds;
          buckets = Array.make (len + 1) 0;
          n = 0;
          sum = 0.0;
          lo = Float.infinity;
          hi = Float.neg_infinity;
        })
    (function Histogram h -> Some h | _ -> None)

(* First bucket whose upper bound covers v; the extra final slot overflows. *)
let bucket_index bounds v =
  let len = Array.length bounds in
  if v > bounds.(len - 1) then len
  else begin
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if bounds.(mid) < v then search (mid + 1) hi else search lo mid
    in
    search 0 (len - 1)
  end

let observe h v =
  if !on then begin
    let i = bucket_index h.bounds v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v
  end

let observe_int h v = observe h (float_of_int v)

let hist_count h = h.n
let hist_mean h = if h.n = 0 then Float.nan else h.sum /. float_of_int h.n
let hist_min h = if h.n = 0 then Float.nan else h.lo
let hist_max h = if h.n = 0 then Float.nan else h.hi

let hist_percentile h p =
  if p < 0.0 || p > 100.0 then invalid_arg "Metrics.hist_percentile: out of range";
  if h.n = 0 then Float.nan
  else begin
    let target = p /. 100.0 *. float_of_int h.n in
    let len = Array.length h.buckets in
    let rec scan i acc =
      if i >= len then h.hi
      else
        let acc = acc + h.buckets.(i) in
        if float_of_int acc >= target then
          if i < Array.length h.bounds then
            (* An exact max is more informative than a bucket bound. *)
            Stdlib.min h.bounds.(i) h.hi
          else h.hi
        else scan (i + 1) acc
    in
    scan 0 0
  end

let reset () =
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | Counter c -> c.count <- 0
      | Timer t ->
        t.calls <- 0;
        t.total_s <- 0.0
      | Histogram h ->
        Array.fill h.buckets 0 (Array.length h.buckets) 0;
        h.n <- 0;
        h.sum <- 0.0;
        h.lo <- Float.infinity;
        h.hi <- Float.neg_infinity
      | Gauge g | Wall_gauge g -> g.value <- Float.nan)
    registry

let snapshot () =
  let sorted =
    Hashtbl.fold (fun name metric acc -> (name, metric) :: acc) registry []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let pick f =
    List.filter_map (fun (name, m) -> Option.map (fun j -> (name, j)) (f m)) sorted
  in
  let counters =
    pick (function Counter c -> Some (Json.Int c.count) | _ -> None)
  in
  let timers =
    pick (function
      | Timer t ->
        Some
          (Json.Obj
             [
               ("count", Json.Int t.calls);
               ("total_ms", Json.Float (t.total_s *. 1000.0));
               ( "mean_ms",
                 if t.calls = 0 then Json.Null
                 else Json.Float (t.total_s *. 1000.0 /. float_of_int t.calls) );
             ])
      | _ -> None)
  in
  (* Consistent null-ing of everything JSON cannot represent: NaN (the
     empty-histogram percentiles/mean/min/max) and the infinities (an
     observed [infinity] would otherwise put a [Json.Float inf] node in
     the tree, which prints as "null" but breaks structural round-trips
     through [Json.of_string]). *)
  let float_or_null f = if Float.is_finite f then Json.Float f else Json.Null in
  let gauges =
    pick (function Gauge g -> Some (float_or_null g.value) | _ -> None)
  in
  (* A wall gauge belongs to the run that sets it (a throughput reading
     of one bench section), so one never set this run is left out rather
     than shown as [null] in every other section's snapshot. *)
  let wall_gauges =
    pick (function
      | Wall_gauge g when not (Float.is_nan g.value) ->
        Some (float_or_null g.value)
      | _ -> None)
  in
  let histograms =
    pick (function
      | Histogram h ->
        Some
          (Json.Obj
             [
               ("count", Json.Int h.n);
               ("mean", float_or_null (hist_mean h));
               ("min", float_or_null (hist_min h));
               ("max", float_or_null (hist_max h));
               ("p50", float_or_null (hist_percentile h 50.0));
               ("p90", float_or_null (hist_percentile h 90.0));
               ("p99", float_or_null (hist_percentile h 99.0));
             ])
      | _ -> None)
  in
  (* Everything deterministic sits at the top level; everything derived
     from real time — timers and wall gauges — is quarantined under
     "wall" so baseline comparisons can skip the subtree wholesale
     instead of filtering by name convention. *)
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
      ( "wall",
        Json.Obj
          [ ("timers", Json.Obj timers); ("gauges", Json.Obj wall_gauges) ] );
    ]
