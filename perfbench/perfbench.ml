(* The repository benchmark: closed-loop workloads over P2prange.System.

   One client on one domain issues its next operation only after the
   previous one returns. Each workload's operation stream (ranges, origin
   peers, churn events) is generated from --seed before any timing starts;
   the system only ever sees the generated operations.

   A run repeats "create the system, play the whole stream, audit" as a
   pass while another pass fits in --seconds. Every pass of a seed is
   deterministic, so the quality figures (messages, recall, degradation,
   failures, audit) come from the first pass and every later pass must
   reproduce them exactly. An operation's latency is the fastest of its
   replays across the passes.

   --trace 0 reports the end-to-end metrics with every Obs plane off.
   --trace 1 reports per-layer metrics from three passes (see
   [run_traced]). The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module System = P2prange.System
module Config = P2prange.Config
module Peer = P2prange.Peer
module Qr = P2prange.Query_result
module Store = P2prange.Store
module Matching = P2prange.Matching
module Routing = P2prange.Routing
module Range = Rangeset.Range
module Qw = Workload.Query_workload
module Rng = Prng.Splitmix

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile values p =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

(* ---------- Workloads ---------- *)

type op =
  | Query of { from : int; range : Range.t }
  | Batch of { from : int; ranges : Range.t list }
  | Publish of { from : int; range : Range.t }
  | Fail of int
  | Recover of int
  | Heal  (** recover every failed peer, oldest first, then [System.repair] *)

type workload = {
  name : string;
  config : Config.t;
  describe : string;
  generate : seed:int64 -> tiny:bool -> op array;
      (** the whole operation stream of one pass, from the stream seed *)
}

let n_peers = 1000

(* A uniformly random peer the generator believes is alive. *)
let live_origin rng alive =
  let rec pick () =
    let i = Rng.int rng (Array.length alive) in
    if alive.(i) then i else pick ()
  in
  pick ()

let origins seed = Rng.create (Int64.add seed 1L)

(* [queries] single queries then [publishes] publishes, all from random
   peers of a churn-free system, then the final heal every workload ends
   with. Publishes come last so that the query phase is exactly the
   read-only traffic of the workload. *)
let queries_then_publishes ~seed ~queries ~publishes ~query_ranges ~publish_ranges =
  let rng = origins seed in
  let qs =
    List.init queries (fun _ ->
        let from = Rng.int rng n_peers in
        Query { from; range = Qw.next query_ranges })
  in
  let ps =
    List.init publishes (fun _ ->
        let from = Rng.int rng n_peers in
        Publish { from; range = Qw.next publish_ranges })
  in
  Array.of_list (qs @ ps @ [ Heal ])

let batch_size = 64
let publishes_per_batch = 16
let batches_per_epoch = 60

(* Ramp 5% of the peers down, then after every batch fail one random
   live peer and recover the oldest failed one; heal at the end.
   The hot spots move every [batches_per_epoch] batches: [hotspots epoch]
   gives each epoch's range stream. Averaging over several hot-spot
   layouts keeps one unlucky layout from dominating a seed. *)
let churn_stream ~batches ~seed ~hotspots =
  let rng = origins seed in
  let alive = Array.make n_peers true in
  let down = Queue.create () in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  let fail () =
    let i = live_origin rng alive in
    alive.(i) <- false;
    Queue.push i down;
    push (Fail i)
  in
  let recover () =
    let i = Queue.pop down in
    alive.(i) <- true;
    push (Recover i)
  in
  for _ = 1 to n_peers / 20 do
    fail ()
  done;
  let stream = ref (hotspots 0) in
  for b = 1 to batches do
    if b > 1 && (b - 1) mod batches_per_epoch = 0 then
      stream := hotspots ((b - 1) / batches_per_epoch);
    let stream = !stream in
    push (Batch { from = live_origin rng alive; ranges = Qw.take stream batch_size });
    for _ = 1 to publishes_per_batch do
      push (Publish { from = live_origin rng alive; range = Qw.next stream })
    done;
    fail ();
    recover ()
  done;
  push Heal;
  Array.of_list (List.rev !ops)

let wide_domain = Range.make ~lo:0 ~hi:((1 lsl 24) - 1)

let replicate_spec =
  { Config.r = 2; hot = Balance.Tracker.Absolute 8; window = 2048 }

let workloads =
  [
    {
      name = "wide-domain";
      config =
        Config.default |> Config.with_domain wide_domain
        |> Config.with_domain_cache false;
      describe =
        "domain [0,2^24), domain cache off; 1000 Chord peers; 2000 \
         Zipf_hotspots (64 hotspots, widths up to 513, s=1) System.query \
         calls, then 400 publishes of fresh Uniform_width (up to 513) ranges";
      generate =
        (fun ~seed ~tiny ->
          (* Fresh publish ranges never hit the signature cache, so every
             publish runs the kernel. *)
          queries_then_publishes ~seed
            ~query_ranges:
              (Qw.create (Qw.Zipf_hotspots { hotspots = 64; spread = 256; s = 1.0 })
                 ~domain:wide_domain ~seed)
            ~publish_ranges:
              (Qw.create (Qw.Uniform_width { max_width = 513 }) ~domain:wide_domain
                 ~seed:(Int64.add seed 2L))
            ~queries:(if tiny then 40 else 2000)
            ~publishes:(if tiny then 8 else 400));
    };
    {
      name = "churn-batch";
      config =
        Config.default
        |> Config.with_balancing
             (Config.Replicate_and_migrate
                { replicate = replicate_spec; migrate = Config.default_migrate })
        |> Config.with_hinted_handoff true
        |> Config.with_substrate (Config.Learned Config.default_learned);
      describe =
        "Replicate_and_migrate + hinted handoff + Learned substrate; 1000 \
         peers; 300 System.query_batch calls of 64 Zipf_hotspots ranges (64 \
         hotspots, widths up to 65, moving every 60 batches) + 16 publishes \
         per batch; 5% of peers down, one fail+recover per batch; heal + \
         repair at the end";
      generate =
        (fun ~seed ~tiny ->
          churn_stream ~seed ~batches:(if tiny then 8 else 300)
            ~hotspots:(fun epoch ->
              Qw.create (Qw.Zipf_hotspots { hotspots = 64; spread = 32; s = 1.0 })
                ~domain:Config.default.Config.domain
                ~seed:(Int64.add seed (Int64.of_int (1000 * epoch)))));
    };
  ]

(* ---------- Output checks ---------- *)

let near a b = Float.abs (a -. b) <= 1e-9
let sum_hops_plus hops k = List.fold_left (fun acc h -> acc + h + k) 0 hops

(* A query result checked against itself: the range it answers, recall
   and similarity recomputed from the matched range, and the message
   count against its hops (exactly Σ(hops+1) for a single query; a batch
   member pays at most its new lookups plus a request/reply pair each). *)
let check_query ~l ~single ~sent (r : Qr.t) =
  let hops = r.Qr.stats.Qr.hops in
  let quality =
    match Qr.matched_range r with
    | None -> r.Qr.recall = 0.0 && r.Qr.similarity = 0.0
    | Some m ->
      let inter = float_of_int (Range.overlap_cardinal sent m) in
      let q = float_of_int (Range.cardinal sent) in
      let union = q +. float_of_int (Range.cardinal m) -. inter in
      near r.Qr.recall (inter /. q) && near r.Qr.similarity (inter /. union)
  in
  let messages = r.Qr.stats.Qr.messages in
  Range.equal r.Qr.query sent
  && List.length r.Qr.stats.Qr.identifiers = l
  && List.length hops = l
  && r.Qr.similarity >= 0.0 && r.Qr.similarity <= 1.0
  && r.Qr.recall >= 0.0 && r.Qr.recall <= 1.0
  && quality
  && r.Qr.degraded = (r.Qr.responders < l)
  &&
  if single then messages = sum_hops_plus hops 1
  else messages >= 0 && messages <= sum_hops_plus hops 2

let check_publish ~l (s : Qr.lookup_stats) =
  List.length s.Qr.identifiers = l
  && List.length s.Qr.hops = l
  && s.Qr.messages = sum_hops_plus s.Qr.hops 1

let obs_planes_off () =
  not (Obs.Metrics.enabled () || Obs.Trace.enabled () || Obs.Series.enabled ())

(* Items the invariant audit inspects: ring positions plus every distinct
   bucket identifier stored anywhere (home, replica or hint holder). *)
let audited_items sys =
  let ids = Hashtbl.create 4096 in
  List.iter
    (fun p ->
      List.iter
        (fun i -> Hashtbl.replace ids i ())
        (Store.identifiers (Peer.store p)))
    (System.peers sys);
  Hashtbl.length ids + Chord.Ring.size (System.ring sys)

(* ---------- Spans (traced run only) ---------- *)

module Spans = struct
  type span = {
    parent : int;  (** index of the parent span, -1 for a root *)
    name : string;
    layer : string;
    start_ns : int64;
    mutable stop_ns : int64;
    mutable calls : int;
  }

  type t = { mutable spans : span array; mutable len : int }

  let create () = { spans = [||]; len = 0 }

  let open_ t ~parent ~name ~layer =
    let s = { parent; name; layer; start_ns = now_ns (); stop_ns = 0L; calls = 0 } in
    if t.len = Array.length t.spans then begin
      let bigger = Array.make (max 1024 (2 * t.len)) s in
      Array.blit t.spans 0 bigger 0 t.len;
      t.spans <- bigger
    end;
    t.spans.(t.len) <- s;
    t.len <- t.len + 1;
    t.len - 1

  let close t i ~calls =
    let s = t.spans.(i) in
    s.stop_ns <- now_ns ();
    s.calls <- calls

  let with_ t ~parent ~name ~layer ~calls f =
    let i = open_ t ~parent ~name ~layer in
    let x = f () in
    close t i ~calls;
    x

  let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

  (* Per layer: (self ns, calls). Self time is a span's duration minus
     the time its children cover. *)
  let self_times t =
    let child = Array.make t.len 0.0 in
    for i = 0 to t.len - 1 do
      let s = t.spans.(i) in
      if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
    done;
    let tbl = Hashtbl.create 8 in
    for i = 0 to t.len - 1 do
      let s = t.spans.(i) in
      let self, calls =
        Option.value (Hashtbl.find_opt tbl s.layer) ~default:(0.0, 0)
      in
      Hashtbl.replace tbl s.layer (self +. duration s -. child.(i), calls + s.calls)
    done;
    tbl

  let total_ns t ~names =
    let total = ref 0.0 in
    for i = 0 to t.len - 1 do
      if List.mem t.spans.(i).name names then total := !total +. duration t.spans.(i)
    done;
    !total

  let write t file =
    let oc = open_out file in
    for i = 0 to t.len - 1 do
      let s = t.spans.(i) in
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"start_ns\":%Ld,\"dur_ns\":%.0f,\"calls\":%d}\n"
        i s.parent s.name s.layer s.start_ns (duration s) s.calls
    done;
    close_out oc
end

(* Benchmark-owned replicas of the signature path: the same family, k, l,
   domain cache and signature-cache capacity as the system's config. *)
module Sig_path = struct
  type t = {
    scheme : Lsh.Scheme.t;
    domain_cache : Lsh.Domain_cache.t option;
    sig_cache : Lsh.Sig_cache.t option;
  }

  let create (c : Config.t) ~seed =
    let scheme =
      Lsh.Scheme.create
        ~universe:(Range.hi c.Config.domain + 1)
        c.Config.family ~k:c.Config.k ~l:c.Config.l (Rng.create seed)
    in
    {
      scheme;
      domain_cache =
        (if c.Config.use_domain_cache then
           Some (Lsh.Domain_cache.build scheme ~domain:c.Config.domain)
         else None);
      sig_cache =
        (if c.Config.signature_cache > 0 then
           Some (Lsh.Sig_cache.create ~capacity:c.Config.signature_cache)
         else None);
    }

  let identifiers t range =
    let compute () =
      match t.domain_cache with
      | Some dc when Range.contains ~outer:(Lsh.Domain_cache.domain dc) ~inner:range ->
        Lsh.Domain_cache.identifiers dc range
      | Some _ | None -> Lsh.Scheme.identifiers_of_range t.scheme range
    in
    match t.sig_cache with
    | None -> compute ()
    | Some c ->
      Lsh.Sig_cache.find_or_compute c ~lo:(Range.lo range) ~hi:(Range.hi range) compute
end

type tracer = {
  spans : Spans.t;
  path : Sig_path.t;
  mutable scanned : int;  (** bucket entries the serve replays matched *)
}

(* ---------- One pass ---------- *)

type quality = {
  queries : int;
  publishes : int;
  messages : int;
  recall_sum : float;
  degraded : int;
  attempted : int;
  failed : int;
  violations : int;
  audited : int;
  hops : int;
  lookups_total : int;
  cache_writes : int;
}

type pass = {
  setup_s : float;
  loop_s : float;
  quality : quality;
  lat_ns : float array;  (** per operation: the system call's wall time *)
  minor_words : float;
  major_collections : int;
}

let first_failures = ref 0

let report_failure fmt =
  Printf.ksprintf
    (fun msg ->
      incr first_failures;
      if !first_failures <= 5 then prerr_endline ("perfbench: check failed: " ^ msg))
    fmt

let run_pass w ~seed ~ops ~tracer ~corrupt =
  Gc.compact ();
  let t0 = now_ns () in
  let sys = System.create ~config:w.config ~seed ~n_peers () in
  let setup_s = ns_since t0 *. 1e-9 in
  let peers = Array.of_list (System.peers sys) in
  let failed_now = Queue.create () in
  let l = w.config.Config.l in
  let lat_ns = Array.make (Array.length ops) 0.0 in
  let queries = ref 0 and publishes = ref 0 in
  let messages = ref 0 and recall_sum = ref 0.0 in
  let degraded = ref 0 and attempted = ref 0 and failed = ref 0 in
  let hops = ref 0 and lookups_total = ref 0 and cache_writes = ref 0 in
  let corrupt = ref corrupt in
  let account ~single sent (r : Qr.t) =
    incr queries;
    incr attempted;
    let r =
      if !corrupt then begin
        corrupt := false;
        { r with Qr.recall = r.Qr.recall +. 0.5 }
      end
      else r
    in
    if not (check_query ~l ~single ~sent r) then begin
      incr failed;
      report_failure "%s: query %s" w.name (Range.to_string sent)
    end;
    messages := !messages + r.Qr.stats.Qr.messages;
    recall_sum := !recall_sum +. r.Qr.recall;
    if r.Qr.degraded then incr degraded;
    hops := !hops + List.fold_left ( + ) 0 r.Qr.stats.Qr.hops;
    lookups_total := !lookups_total + List.length r.Qr.stats.Qr.hops;
    if r.Qr.cached then
      cache_writes := !cache_writes + List.length r.Qr.stats.Qr.identifiers
  in
  let raised count exn =
    attempted := !attempted + count;
    failed := !failed + count;
    report_failure "%s: raised %s" w.name (Printexc.to_string exn)
  in
  (* Traced-run replays: each layer's public functions on the inputs of
     the operation just played, each under its own span. *)
  let replay_signatures tr ~root ranges =
    Spans.with_ tr.spans ~parent:root ~name:"Lsh signature" ~layer:"lsh"
      ~calls:(List.length ranges) (fun () ->
        List.iter (fun r -> ignore (Sig_path.identifiers tr.path r : int list)) ranges)
  in
  let replay_routes tr ~root ~from ids =
    Spans.with_ tr.spans ~parent:root ~name:"System.lookup_position"
      ~layer:"route" ~calls:(List.length ids) (fun () ->
        List.iter
          (fun key -> ignore (System.lookup_position sys ~from ~key : int * int))
          ids)
  in
  let replay_serves tr ~root (results : Qr.t list) =
    let n =
      List.fold_left (fun acc r -> acc + List.length r.Qr.stats.Qr.identifiers) 0 results
    in
    Spans.with_ tr.spans ~parent:root ~name:"Store.peek_bucket+Matching.best"
      ~layer:"serve" ~calls:n (fun () ->
        List.iter
          (fun (r : Qr.t) ->
            List.iter
              (fun identifier ->
                let owner = System.owner_of_identifier sys identifier in
                let entries = Store.peek_bucket (Peer.store owner) ~identifier in
                tr.scanned <- tr.scanned + List.length entries;
                ignore
                  (Matching.best w.config.Config.matching ~query:r.Qr.effective entries
                    : Matching.scored option))
              r.Qr.stats.Qr.identifiers)
          results)
  in
  (* The system call itself, under a span in the spanned pass. *)
  let system_call ~root ~name f =
    match tracer with
    | None -> f ()
    | Some tr -> Spans.with_ tr.spans ~parent:root ~name ~layer:"system" ~calls:1 f
  in
  let churn ~root ~index ~name f =
    let t0 = now_ns () in
    match system_call ~root ~name f with
    | () ->
      lat_ns.(index) <- ns_since t0;
      incr attempted
    | exception exn -> raised 1 exn
  in
  let play index op =
    let root =
      match tracer with
      | None -> -1
      | Some tr -> Spans.open_ tr.spans ~parent:(-1) ~name:"op" ~layer:"bench"
    in
    (match op with
    | Query { from; range } -> (
      let from = peers.(from) in
      let t0 = now_ns () in
      match system_call ~root ~name:"System.query" (fun () -> System.query sys ~from range) with
      | r ->
        lat_ns.(index) <- ns_since t0;
        account ~single:true range r;
        Option.iter
          (fun tr ->
            replay_signatures tr ~root [ range ];
            replay_routes tr ~root ~from r.Qr.stats.Qr.identifiers;
            replay_serves tr ~root [ r ])
          tracer
      | exception exn -> raised 1 exn)
    | Batch { from; ranges } -> (
      let from = peers.(from) in
      let t0 = now_ns () in
      match
        system_call ~root ~name:"System.query_batch" (fun () ->
            System.query_batch sys ~from ranges)
      with
      | rs ->
        lat_ns.(index) <- ns_since t0;
        if List.length rs <> List.length ranges then begin
          raised (List.length ranges) (Failure "query_batch: result count")
        end
        else List.iter2 (account ~single:false) ranges rs;
        Option.iter
          (fun tr ->
            replay_signatures tr ~root ranges;
            replay_routes tr ~root ~from
              (List.concat_map (fun r -> r.Qr.stats.Qr.identifiers) rs);
            replay_serves tr ~root rs)
          tracer
      | exception exn -> raised (List.length ranges) exn)
    | Publish { from; range } -> (
      let from = peers.(from) in
      let t0 = now_ns () in
      match
        system_call ~root ~name:"System.publish" (fun () ->
            System.publish sys ~from range)
      with
      | s ->
        lat_ns.(index) <- ns_since t0;
        incr attempted;
        incr publishes;
        if not (check_publish ~l s) then begin
          incr failed;
          report_failure "%s: publish %s" w.name (Range.to_string range)
        end;
        Option.iter
          (fun tr ->
            replay_signatures tr ~root [ range ];
            replay_routes tr ~root ~from s.Qr.identifiers)
          tracer
      | exception exn -> raised 1 exn)
    | Fail i ->
      churn ~root ~index ~name:"System.fail_peer" (fun () ->
          System.fail_peer sys peers.(i);
          Queue.push i failed_now)
    | Recover i ->
      churn ~root ~index ~name:"System.recover_peer" (fun () ->
          System.recover_peer sys peers.(i);
          ignore (Queue.pop failed_now : int))
    | Heal ->
      churn ~root ~index ~name:"System.recover_peer+repair" (fun () ->
          Queue.iter (fun i -> System.recover_peer sys peers.(i)) failed_now;
          Queue.clear failed_now;
          System.repair sys));
    Option.iter (fun tr -> Spans.close tr.spans root ~calls:1) tracer
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  Array.iteri play ops;
  let loop_s = ns_since t0 *. 1e-9 in
  let gc1 = Gc.quick_stat () in
  let violations = List.length (System.check_invariants sys) in
  let quality =
    {
      queries = !queries;
      publishes = !publishes;
      messages = !messages;
      recall_sum = !recall_sum;
      degraded = !degraded;
      attempted = !attempted;
      failed = !failed;
      violations;
      audited = audited_items sys;
      hops = !hops;
      lookups_total = !lookups_total;
      cache_writes = !cache_writes;
    }
  in
  ( sys,
    {
      setup_s;
      loop_s;
      quality;
      lat_ns;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    } )

(* ---------- Reporting ---------- *)

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file -> Float.nan
    in
    let v = scan () in
    close_in ic;
    v
  with Sys_error _ -> Float.nan

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Prints the human table, then the one-line JSON result; a metric that
   is not a finite number makes the result incorrect. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, unit_, v) -> Printf.printf "  %-36s %18.6f %s\n" name v unit_)
    metrics;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then json_number v else "null")
             unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (correct && finite) attempted failed body

(* ---------- End-to-end run ---------- *)

let min_setups = 5

(* Passes replay identical work, so the fastest replay of each operation
   strips interference from the machine; at least this many passes run. *)
let min_passes = 3

let run_e2e w ~seed ~ops ~seconds ~corrupt =
  let planes_off = obs_planes_off () in
  let start = now_ns () in
  let passes = ref [] and last_pass_s = ref 0.0 in
  (* A pass starts only if one as long as the last still fits, so a run
     with slow passes does not overrun --seconds by most of a pass. *)
  while
    List.length !passes < min_passes
    || (ns_since start *. 1e-9) +. !last_pass_s < seconds
  do
    let t0 = now_ns () in
    let _, p = run_pass w ~seed ~ops ~tracer:None ~corrupt:(corrupt && !passes = []) in
    last_pass_s := ns_since t0 *. 1e-9;
    passes := p :: !passes
  done;
  let passes = List.rev !passes in
  let first = List.hd passes in
  (* Every pass of one seed must reproduce the first pass exactly. *)
  let deterministic = List.for_all (fun p -> p.quality = first.quality) passes in
  if not deterministic then prerr_endline "perfbench: passes disagree on quality";
  let extra_setups =
    List.init
      (max 0 (min_setups - List.length passes))
      (fun _ ->
        Gc.compact ();
        let t0 = now_ns () in
        ignore (System.create ~config:w.config ~seed ~n_peers () : System.t);
        ns_since t0 *. 1e-9)
  in
  let q = first.quality in
  let best = Array.make (Array.length ops) Float.infinity in
  List.iter
    (fun p -> Array.iteri (fun i x -> if x < best.(i) then best.(i) <- x) p.lat_ns)
    passes;
  let latencies_us keep =
    let picked = ref [] in
    Array.iteri (fun i op -> if keep op then picked := (best.(i) *. 1e-3) :: !picked) ops;
    Array.of_list !picked
  in
  let query_us = latencies_us (function Query _ | Batch _ -> true | _ -> false) in
  let publish_us = latencies_us (function Publish _ -> true | _ -> false) in
  let stream_s = Array.fold_left ( +. ) 0.0 best *. 1e-9 in
  let error_rate = ratio q.failed q.attempted in
  let degraded_rate = ratio q.degraded q.queries in
  let audit_pass = 1.0 -. ratio q.violations q.audited in
  Printf.printf "passes=%d, per pass: %d query calls, %d publishes, %d operations\n"
    (List.length passes) (Array.length query_us) (Array.length publish_us)
    (Array.length ops);
  Printf.printf "  raw: error_rate=%g degraded_rate=%g invariant_violations=%d (of %d audited)\n"
    error_rate degraded_rate q.violations q.audited;
  let metrics =
    [ ("qps", "1/s", float_of_int q.queries /. stream_s);
      ("query_p50_us", "us", percentile query_us 0.5);
      ("query_p99_us", "us", percentile query_us 0.99);
      ("publish_p50_us", "us", percentile publish_us 0.5);
      ("publish_p99_us", "us", percentile publish_us 0.99);
      ("msgs_per_query", "count", ratio q.messages q.queries);
      ("recall_mean", "ratio", q.recall_sum /. float_of_int (max 1 q.queries));
      ("full_answer_rate", "ratio", 1.0 -. degraded_rate);
      ("ok_rate", "ratio", 1.0 -. error_rate);
      ("audit_pass_rate", "ratio", audit_pass);
      ( "setup_s", "s",
        percentile (Array.of_list (List.map (fun p -> p.setup_s) passes @ extra_setups)) 0.5 );
      ("peak_rss_mb", "MB", peak_rss_mb ()) ]
  in
  let attempted = List.fold_left (fun acc p -> acc + p.quality.attempted) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + p.quality.failed) 0 passes in
  let planes_off = planes_off && obs_planes_off () in
  if not planes_off then prerr_endline "perfbench: an Obs plane was on in the e2e run";
  emit ~correct:(deterministic && planes_off && failed = 0) ~attempted ~failed metrics

(* ---------- Traced run ---------- *)

let kernel_kinds =
  [ ("approx", Lsh.Family.Approx_minwise); ("exact", Lsh.Family.Exact_minwise);
    ("linear", Lsh.Family.Linear) ]

(* ns per value of [Family.minhash_range] over the workload's query
   ranges, cycling through them until [budget_s] has elapsed. *)
let kernel_ns_per_value w ~seed ~ranges ~budget_s kind =
  let fn =
    Lsh.Family.create ~universe:(Range.hi w.config.Config.domain + 1) kind
      (Rng.create seed)
  in
  let ranges = Array.of_list ranges in
  let values = ref 0 and i = ref 0 in
  let t0 = now_ns () in
  while !i = 0 || ns_since t0 *. 1e-9 < budget_s do
    let r = ranges.(!i mod Array.length ranges) in
    ignore (Lsh.Family.minhash_range fn r : int);
    values := !values + Range.cardinal r;
    incr i
  done;
  ns_since t0 /. float_of_int !values

(* Median of three timings of [f]. *)
let time_ms f =
  let once () =
    let t0 = now_ns () in
    ignore (f ());
    ns_since t0 *. 1e-6
  in
  percentile (Array.init 3 (fun _ -> once ())) 0.5

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Three passes over the same stream, which must agree exactly: a plain
   one (the overhead baseline and the GC counters), a counted one with
   the Obs.Metrics plane on (the program's own counters), and a spanned
   one with every plane off that wraps benchmark-owned spans around the
   system calls and around replays of each layer's public functions. *)
let run_traced w ~seed ~ops ~spans_file ~corrupt =
  let _, plain = run_pass w ~seed ~ops ~tracer:None ~corrupt in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let sys, counted = run_pass w ~seed ~ops ~tracer:None ~corrupt:false in
  Obs.Metrics.disable ();
  let tr = { spans = Spans.create (); path = Sig_path.create w.config ~seed; scanned = 0 } in
  let _, traced = run_pass w ~seed ~ops ~tracer:(Some tr) ~corrupt:false in
  let deterministic =
    counted.quality = plain.quality && traced.quality = plain.quality
  in
  if not deterministic then prerr_endline "perfbench: traced passes disagree";
  let q = counted.quality in
  let ranges =
    List.concat_map
      (function
        | Query { range; _ } | Publish { range; _ } -> [ range ]
        | Batch { ranges; _ } -> ranges
        | Fail _ | Recover _ | Heal -> [])
      (Array.to_list ops)
  in
  let kernel =
    List.map
      (fun (label, kind) ->
        ( "lsh.kernel_ns_per_value." ^ label, "ns",
          kernel_ns_per_value w ~seed ~ranges ~budget_s:0.2 kind ))
      kernel_kinds
  in
  (* Set-up layers timed on every workload, whether or not its config
     uses them: the domain cache over the paper's [0,1000] domain and the
     learned fit over the system's ring. *)
  let dc_build_ms =
    time_ms (fun () ->
        Lsh.Domain_cache.build tr.path.Sig_path.scheme ~domain:Config.default.Config.domain)
  in
  let fit_ms =
    let { Config.max_error; retrain_after } =
      match w.config.Config.substrate with
      | Config.Learned learned -> learned
      | Config.Chord -> Config.default_learned
    in
    let keys = Chord.Ring.node_ids (System.ring sys) in
    time_ms (fun () -> Learned.Model.fit ~keys ~max_error ~retrain_after)
  in
  let retrains =
    match Routing.learned_model (System.routing sys) with
    | Some m -> float_of_int (Learned.Model.retrains m)
    | None -> 0.0
  in
  let sig_hit_rate =
    match System.signature_cache sys with
    | Some c -> ratio (Lsh.Sig_cache.hits c) (Lsh.Sig_cache.hits c + Lsh.Sig_cache.misses c)
    | None -> 0.0
  in
  let batch_queries = counter "system.batch.queries" in
  let selfs = Spans.self_times tr.spans in
  let self_calls layer = Option.value (Hashtbl.find_opt selfs layer) ~default:(0.0, 0) in
  let layer name =
    let self, calls = self_calls name in
    [ ("layer." ^ name ^ ".self_ms", "ms", self *. 1e-6);
      ("layer." ^ name ^ ".calls", "count", float_of_int calls) ]
  in
  let per_call_us layer =
    let self, calls = self_calls layer in
    if calls = 0 then 0.0 else self *. 1e-3 /. float_of_int calls
  in
  let serves = snd (self_calls "serve") in
  let metrics =
    [ ("lsh.signature_us", "us", per_call_us "lsh") ]
    @ kernel
    @ [ ("lsh.minhash_evals_per_query", "count", ratio (counter "lsh.minhash_evals") (q.queries + q.publishes));
        ("lsh.sig_cache.hit_rate", "ratio", sig_hit_rate);
        ("lsh.domain_cache.hit_rate", "ratio",
          ratio (counter "lsh.domain_cache.hit")
            (counter "lsh.domain_cache.hit" + counter "lsh.domain_cache.miss"));
        ("lsh.domain_cache.build_ms", "ms", dc_build_ms);
        ("route.lookup_us", "us", per_call_us "route");
        ("route.hops_per_lookup", "count", ratio q.hops q.lookups_total);
        ("route.batch_identifier_hit_rate", "ratio",
          ratio (counter "system.batch.identifier_hits") (batch_queries * w.config.Config.l));
        ("route.coalesced_contacts_per_query", "count",
          ratio (counter "system.batch.coalesced_contacts") q.queries);
        ("learned.stale_rate", "ratio",
          ratio (Routing.learned_stale_lookups (System.routing sys))
            (Routing.learned_lookups (System.routing sys)));
        ("learned.retrains", "count", retrains);
        ("learned.fit_ms", "ms", fit_ms);
        ("serve.match_us", "us", per_call_us "serve");
        ("serve.entries_scanned_per_lookup", "count", ratio tr.scanned serves);
        ("store.entries_total", "count", float_of_int (System.total_entries sys));
        ("system.cache_writes_per_query", "count", ratio q.cache_writes q.queries);
        ("balance.replications", "count", float_of_int (counter "balance.replications"));
        ("balance.replica_hits", "count", float_of_int (counter "balance.replica_hits"));
        ("balance.failovers", "count", float_of_int (counter "balance.failovers"));
        ("balance.migrations", "count", float_of_int (counter "balance.migrations"));
        ("balance.migrated_entries", "count", float_of_int (counter "balance.migrated_entries"));
        ("balance.load_imbalance", "ratio", System.load_imbalance sys);
        ( "repair.recover_ms", "ms",
          Spans.total_ns tr.spans
            ~names:[ "System.recover_peer"; "System.recover_peer+repair" ]
          *. 1e-6 );
        ("repair.hints_replayed", "count", float_of_int (counter "system.hints_replayed"));
        ("repair.replica_resyncs", "count", float_of_int (counter "balance.replica_resyncs"));
        ("error_rate", "ratio", ratio q.failed q.attempted);
        ("degraded_rate", "ratio", ratio q.degraded q.queries);
        ("invariant_violations", "count", float_of_int q.violations);
        ( "gc.minor_words_per_op", "words",
          plain.minor_words /. float_of_int (Array.length ops) );
        ("gc.major_collections", "count", float_of_int plain.major_collections);
        ("obs.trace_overhead_ratio", "ratio", traced.loop_s /. plain.loop_s);
        ("obs.metrics_overhead_ratio", "ratio", counted.loop_s /. plain.loop_s) ]
    @ List.concat_map layer [ "bench"; "system"; "lsh"; "route"; "serve" ]
  in
  Option.iter (Spans.write tr.spans) spans_file;
  Printf.printf "traced: %d spans\n" tr.spans.Spans.len;
  emit
    ~correct:(deterministic && plain.quality.failed = 0)
    ~attempted:(plain.quality.attempted + counted.quality.attempted + traced.quality.attempted)
    ~failed:(plain.quality.failed + counted.quality.failed + traced.quality.failed)
    metrics

(* ---------- Main ---------- *)

(* The system under test is one fixed deployment: its hash scheme (drawn
   once at bootstrap and shipped to every peer) comes from this constant,
   while --seed varies only the operation stream. *)
let system_seed = 42L

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and corrupt = ref false and spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the operation stream");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans as JSONL");
      ("--tiny", Arg.Set tiny, " tiny operation streams (self-check)");
      ("--corrupt", Arg.Set corrupt,
        " corrupt one query result before checking (self-check of the checks)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let stream_seed = Int64.of_int !seed in
  let ops = w.generate ~seed:stream_seed ~tiny:!tiny in
  Printf.printf "perfbench %s (stream seed %Ld): %s\n" w.name stream_seed w.describe;
  let seed = system_seed in
  match !trace with
  | 0 -> run_e2e w ~seed ~ops ~seconds:!seconds ~corrupt:!corrupt
  | 1 ->
    run_traced w ~seed ~ops
      ~spans_file:(if !spans = "" then None else Some !spans)
      ~corrupt:!corrupt
  | n ->
    Printf.eprintf "perfbench: --trace must be 0 or 1, not %d\n" n;
    exit 2
