(* The metrics registry: counter/timer/histogram semantics, the global
   enable flag (disabled mode must be a no-op), and the JSON emitter.

   The registry is process-global and shared with the instrumented
   libraries, so every test runs inside [isolated], which enables metrics,
   resets all values, and restores the disabled default afterwards. *)

module M = Obs.Metrics
module J = Obs.Json

let isolated f () =
  M.enable ();
  M.reset ();
  Fun.protect
    ~finally:(fun () ->
      M.disable ();
      M.reset ())
    f

let counter_semantics () =
  let c = M.counter "test.obs.counter" in
  Alcotest.(check int) "starts at zero" 0 (M.counter_value c);
  M.incr c;
  M.incr c;
  M.add c 40;
  Alcotest.(check int) "incr + add" 42 (M.counter_value c);
  let again = M.counter "test.obs.counter" in
  M.incr again;
  Alcotest.(check int) "same name is the same counter" 43 (M.counter_value c)

let disabled_is_noop () =
  let c = M.counter "test.obs.disabled" in
  let h = M.histogram "test.obs.disabled.h" in
  let t = M.timer "test.obs.disabled.t" in
  M.disable ();
  M.incr c;
  M.add c 10;
  M.observe h 5.0;
  let result = M.time t (fun () -> 17) in
  M.enable ();
  Alcotest.(check int) "thunk still runs" 17 result;
  Alcotest.(check int) "counter untouched" 0 (M.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (M.hist_count h);
  Alcotest.(check int) "timer untouched" 0 (M.timer_count t)

let timer_semantics () =
  let t = M.timer "test.obs.timer" in
  let v = M.time t (fun () -> String.length "hello") in
  Alcotest.(check int) "returns the thunk value" 5 v;
  Alcotest.(check int) "one call recorded" 1 (M.timer_count t);
  Alcotest.(check bool) "non-negative total" true (M.timer_total_ms t >= 0.0);
  (* The clock stops even when the thunk raises. *)
  (try M.time t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising call still recorded" 2 (M.timer_count t)

let histogram_semantics () =
  let h = M.histogram "test.obs.hist" in
  List.iter (fun v -> M.observe_int h v) [ 1; 2; 2; 3; 10 ];
  Alcotest.(check int) "count" 5 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "mean" 3.6 (M.hist_mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (M.hist_min h);
  Alcotest.(check (float 1e-9)) "max" 10.0 (M.hist_max h);
  Alcotest.(check (float 1e-9)) "p50 lands on 2" 2.0 (M.hist_percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p100 is the max" 10.0 (M.hist_percentile h 100.0)

let histogram_overflow_bucket () =
  let h = M.histogram ~bounds:[| 1.0; 2.0; 4.0 |] "test.obs.hist.bounded" in
  List.iter (M.observe h) [ 0.5; 3.0; 1000.0 ];
  Alcotest.(check int) "overflow observations counted" 3 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "exact max survives overflow" 1000.0
    (M.hist_max h);
  Alcotest.(check (float 1e-9)) "p99 resolves to the overflow max" 1000.0
    (M.hist_percentile h 99.0)

let empty_histogram () =
  let h = M.histogram "test.obs.hist.empty" in
  Alcotest.(check bool) "mean is NaN" true (Float.is_nan (M.hist_mean h));
  Alcotest.(check bool) "percentile is NaN" true
    (Float.is_nan (M.hist_percentile h 50.0))

let registry_type_clash () =
  let _ = M.counter "test.obs.clash" in
  Alcotest.check_raises "name reuse across types"
    (Invalid_argument "Metrics: \"test.obs.clash\" already registered with another type")
    (fun () -> ignore (M.timer "test.obs.clash"))

let reset_zeroes_in_place () =
  let c = M.counter "test.obs.reset" in
  let h = M.histogram "test.obs.reset.h" in
  M.add c 7;
  M.observe h 3.0;
  M.reset ();
  Alcotest.(check int) "counter zeroed" 0 (M.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (M.hist_count h);
  M.incr c;
  Alcotest.(check int) "handle still live after reset" 1 (M.counter_value c)

let json_golden () =
  (* The emitter itself, pinned byte-for-byte. *)
  let doc =
    J.Obj
      [
        ("name", J.String "p2p \"range\"");
        ("n", J.Int 42);
        ("rate", J.Float 0.5);
        ("bad", J.Float Float.nan);
        ("ok", J.Bool true);
        ("items", J.List [ J.Int 1; J.Int 2 ]);
        ("empty", J.Obj []);
      ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"name\":\"p2p \\\"range\\\"\",\"n\":42,\"rate\":0.5,\"bad\":null,\"ok\":true,\"items\":[1,2],\"empty\":{}}"
    (J.to_string ~indent:0 doc);
  Alcotest.(check string) "indented rendering"
    "{\n  \"a\": [\n    1\n  ]\n}"
    (J.to_string (J.Obj [ ("a", J.List [ J.Int 1 ]) ]))

let gauge_semantics () =
  let g = M.gauge "test.obs.gauge" in
  Alcotest.(check bool) "unset is NaN" true (Float.is_nan (M.gauge_value g));
  M.set_gauge g 2.5;
  M.set_gauge g 7.25;
  Alcotest.(check (float 0.0)) "last write wins" 7.25 (M.gauge_value g);
  M.disable ();
  M.set_gauge g 99.0;
  M.enable ();
  Alcotest.(check (float 0.0)) "disabled set is a no-op" 7.25 (M.gauge_value g);
  M.reset ();
  Alcotest.(check bool) "reset unsets" true (Float.is_nan (M.gauge_value g))

let json_parse_roundtrip () =
  (* Everything the emitter can print must parse back structurally equal
     (non-finite floats are emitted as null, so they are excluded here —
     the golden test pins that mapping). *)
  let doc =
    J.Obj
      [
        ("name", J.String "p2p \"range\" \\ \n tab\t");
        ("unicode", J.String "\xe2\x86\x92");
        ("n", J.Int (-42));
        ("big", J.Int max_int);
        ("rate", J.Float 0.1);
        ("tiny", J.Float 1.5e-300);
        ("ok", J.Bool true);
        ("no", J.Bool false);
        ("nothing", J.Null);
        ("items", J.List [ J.Int 1; J.Float 2.5; J.List []; J.Obj [] ]);
      ]
  in
  List.iter
    (fun indent ->
      match J.of_string (J.to_string ~indent doc) with
      | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = doc)
      | Error msg -> Alcotest.fail ("parse failed: " ^ msg))
    [ 0; 2 ];
  (* Escapes decode, including \u sequences. *)
  (match J.of_string {|{"a": "x\u0041\n\u2192"}|} with
  | Ok t -> Alcotest.(check bool) "escapes" true
      (t = J.Obj [ ("a", J.String "xA\n\xe2\x86\x92") ])
  | Error msg -> Alcotest.fail msg);
  let rejects s =
    match J.of_string s with
    | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ s)
    | Error _ -> ()
  in
  List.iter rejects
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "{\"a\":1} x"; "\"\\q\"";
      "nan"; "'single'" ]

let snapshot_roundtrip () =
  (* The bench's actual artifact path: a snapshot of live metrics printed
     with the emitter must parse back equal through [of_string] — the same
     check CI's check_bench relies on. *)
  let c = M.counter "test.obs.rt.counter" in
  let g = M.gauge "test.obs.rt.gauge" in
  let unset = M.gauge "test.obs.rt.unset" in
  let h = M.histogram "test.obs.rt.hist" in
  ignore unset;
  M.add c 12;
  M.set_gauge g 0.75;
  List.iter (M.observe h) [ 1.0; 2.0; 3.0 ];
  let snap = M.snapshot () in
  match J.of_string (J.to_string snap) with
  | Error msg -> Alcotest.fail ("snapshot did not parse: " ^ msg)
  | Ok parsed ->
    Alcotest.(check bool) "snapshot round-trips" true (parsed = snap);
    (match J.member "gauges" parsed with
    | Some (J.Obj gauges) ->
      Alcotest.(check bool) "set gauge survives" true
        (List.assoc_opt "test.obs.rt.gauge" gauges = Some (J.Float 0.75));
      Alcotest.(check bool) "unset gauge parses back as null" true
        (List.assoc_opt "test.obs.rt.unset" gauges = Some J.Null)
    | Some _ | None -> Alcotest.fail "snapshot lacks a gauges object")

let snapshot_structure () =
  let c = M.counter "test.obs.snap.counter" in
  let h = M.histogram "test.obs.snap.hist" in
  M.add c 3;
  M.observe_int h 4;
  let snap = M.snapshot () in
  (match J.member "counters" snap with
  | Some (J.Obj counters) ->
    Alcotest.(check bool) "counter present with value" true
      (List.assoc_opt "test.obs.snap.counter" counters = Some (J.Int 3))
  | Some _ | None -> Alcotest.fail "snapshot lacks a counters object");
  (match J.member "histograms" snap with
  | Some (J.Obj hists) -> (
    match List.assoc_opt "test.obs.snap.hist" hists with
    | Some (J.Obj fields) ->
      Alcotest.(check bool) "count field" true
        (List.assoc_opt "count" fields = Some (J.Int 1));
      Alcotest.(check bool) "p99 field present" true
        (List.mem_assoc "p99" fields)
    | Some _ | None -> Alcotest.fail "snapshot lacks the test histogram")
  | Some _ | None -> Alcotest.fail "snapshot lacks a histograms object");
  (* A snapshot is valid JSON input for the golden emitter path too. *)
  Alcotest.(check bool) "renders non-empty" true
    (String.length (J.to_string snap) > 0)

let snapshot_wall_subtree () =
  (* Wall-clock readings — timers and wall gauges — live in their own
     "wall" subtree, so baseline comparisons over "gauges" never see
     them: the deterministic top level must not leak a wall gauge. *)
  let t = M.timer "test.obs.wall.timer" in
  let wg = M.wall_gauge "test.obs.wall.gauge" in
  let g = M.gauge "test.obs.wall.plain" in
  ignore (M.time t (fun () -> 1));
  M.set_gauge wg 123.0;
  M.set_gauge g 7.0;
  let snap = M.snapshot () in
  (match J.member "wall" snap with
  | Some wall ->
    (match J.member "timers" wall with
    | Some (J.Obj timers) ->
      Alcotest.(check bool) "timer under wall" true
        (List.mem_assoc "test.obs.wall.timer" timers)
    | Some _ | None -> Alcotest.fail "wall lacks a timers object");
    (match J.member "gauges" wall with
    | Some (J.Obj gauges) ->
      Alcotest.(check bool) "wall gauge under wall" true
        (List.assoc_opt "test.obs.wall.gauge" gauges = Some (J.Float 123.0));
      Alcotest.(check bool) "plain gauge not under wall" true
        (not (List.mem_assoc "test.obs.wall.plain" gauges))
    | Some _ | None -> Alcotest.fail "wall lacks a gauges object")
  | None -> Alcotest.fail "snapshot lacks the wall subtree");
  (match J.member "gauges" snap with
  | Some (J.Obj gauges) ->
    Alcotest.(check bool) "plain gauge stays top-level" true
      (List.assoc_opt "test.obs.wall.plain" gauges = Some (J.Float 7.0));
    Alcotest.(check bool) "wall gauge absent from top-level gauges" true
      (not (List.mem_assoc "test.obs.wall.gauge" gauges))
  | Some _ | None -> Alcotest.fail "snapshot lacks a gauges object");
  match J.member "timers" snap with
  | None -> ()
  | Some _ -> Alcotest.fail "timers must no longer be a top-level member"

(* A wall gauge nobody set in this run (another bench section's
   throughput reading) is left out of the snapshot instead of showing as
   [null]; an unset deterministic gauge still renders as [null], so
   baseline snapshots keep their shape. *)
let unset_wall_gauge_omitted () =
  let wg = M.wall_gauge "test.obs.wall.unset" in
  ignore (M.gauge "test.obs.plain.unset" : M.gauge);
  let wall_gauges () =
    match J.member "wall" (M.snapshot ()) with
    | Some wall -> (
      match J.member "gauges" wall with
      | Some (J.Obj gauges) -> gauges
      | Some _ | None -> Alcotest.fail "wall lacks a gauges object")
    | None -> Alcotest.fail "snapshot lacks the wall subtree"
  in
  Alcotest.(check bool) "unset wall gauge omitted" false
    (List.mem_assoc "test.obs.wall.unset" (wall_gauges ()));
  (match J.member "gauges" (M.snapshot ()) with
  | Some (J.Obj gauges) ->
    Alcotest.(check bool) "unset plain gauge still null" true
      (List.assoc_opt "test.obs.plain.unset" gauges = Some J.Null)
  | Some _ | None -> Alcotest.fail "snapshot lacks a gauges object");
  M.set_gauge wg 2.5;
  Alcotest.(check bool) "set wall gauge shown" true
    (List.assoc_opt "test.obs.wall.unset" (wall_gauges ()) = Some (J.Float 2.5));
  (* [reset] unsets it again. *)
  M.reset ();
  Alcotest.(check bool) "reset wall gauge omitted" false
    (List.mem_assoc "test.obs.wall.unset" (wall_gauges ()))

(* Property: any document the emitter can produce — nested fault-section
   objects, gauge [null]s, finite floats, metric-name keys — parses back
   structurally equal, at both indentations. Generated trees mimic the
   snapshot shape rather than arbitrary JSON: that is the contract the
   parser was written for. *)
let gen_json =
  let open QCheck.Gen in
  let key =
    map (String.concat ".")
      (list_size (1 -- 3)
         (oneofl
            [ "faults"; "bench"; "recall"; "drops"; "retry_on"; "gap";
              "sends"; "p50"; "system"; "degraded" ]))
  in
  (* Finite floats spanning magnitudes, the way rates and latencies do. *)
  let finite_float =
    map2
      (fun m e -> float_of_int m *. (10.0 ** float_of_int e))
      (int_range (-1_000_000) 1_000_000)
      (int_range (-6) 6)
  in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) finite_float;
        map (fun s -> J.String s) (small_string ~gen:printable);
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map
              (fun fields -> J.Obj fields)
              (list_size (0 -- 4)
                 (pair key (tree (depth - 1)))) );
          (1, map (fun xs -> J.List xs) (list_size (0 -- 4) (tree (depth - 1))));
        ]
  in
  (* Root shaped like a bench document: sections -> gauges with nulls. *)
  map
    (fun (body, gap) ->
      J.Obj
        [
          ("schema_version", J.Int 1);
          ( "sections",
            J.Obj
              [
                ( "faults",
                  J.Obj
                    [
                      ( "metrics",
                        J.Obj
                          [
                            ( "gauges",
                              J.Obj
                                [
                                  ("faults.bench.recall_gap", gap);
                                  ("balance.bench.imbalance_off", J.Null);
                                ] );
                          ] );
                      ("derived", body);
                    ] );
              ] );
        ])
    (pair (tree 3) (oneof [ return J.Null; map (fun f -> J.Float f) finite_float ]))

(* Regression: an empty histogram's snapshot must emit [null] for every
   statistic (NaN has no JSON encoding), never raise, and still parse
   back structurally equal. *)
let empty_histogram_snapshot_nulls () =
  let _ = M.histogram "test.obs.hist.empty_json" in
  let snap = M.snapshot () in
  (match J.member "histograms" snap with
  | Some (J.Obj hists) -> (
    match List.assoc_opt "test.obs.hist.empty_json" hists with
    | Some (J.Obj fields) ->
      Alcotest.(check bool) "count is zero" true
        (List.assoc_opt "count" fields = Some (J.Int 0));
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " is null") true
            (List.assoc_opt key fields = Some J.Null))
        [ "mean"; "min"; "max"; "p50"; "p90"; "p99" ]
    | Some _ | None -> Alcotest.fail "empty histogram missing from snapshot")
  | Some _ | None -> Alcotest.fail "snapshot lacks a histograms object");
  match J.of_string (J.to_string snap) with
  | Ok parsed ->
    Alcotest.(check bool) "empty-histogram snapshot round-trips" true
      (parsed = snap)
  | Error msg -> Alcotest.fail ("snapshot did not parse: " ^ msg)

(* An observed infinity must null the affected statistics the same way —
   [Json.Float infinity] would print as "null" but break structural
   round-trips. *)
let infinite_observation_nulls () =
  let h = M.histogram "test.obs.hist.inf" in
  M.observe h Float.infinity;
  let snap = M.snapshot () in
  (match J.member "histograms" snap with
  | Some (J.Obj hists) -> (
    match List.assoc_opt "test.obs.hist.inf" hists with
    | Some (J.Obj fields) ->
      Alcotest.(check bool) "count is one" true
        (List.assoc_opt "count" fields = Some (J.Int 1));
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " is null") true
            (List.assoc_opt key fields = Some J.Null))
        [ "mean"; "max"; "p50"; "p90"; "p99" ]
    | Some _ | None -> Alcotest.fail "histogram missing from snapshot")
  | Some _ | None -> Alcotest.fail "snapshot lacks a histograms object");
  match J.of_string (J.to_string snap) with
  | Ok parsed ->
    Alcotest.(check bool) "infinite-observation snapshot round-trips" true
      (parsed = snap)
  | Error msg -> Alcotest.fail ("snapshot did not parse: " ^ msg)

(* Seeded torture round-trip: deep nesting, escape-heavy strings (quotes,
   backslashes, control characters, multi-byte UTF-8, text that looks
   like escape sequences), and ints near [max_int]. Deterministic in the
   Splitmix seed, so a failure reproduces exactly. *)
let seeded_roundtrip_torture () =
  let rng = Prng.Splitmix.create 2003L in
  let nasty_string () =
    let len = Prng.Splitmix.int rng 24 in
    let buf = Buffer.create len in
    for _ = 1 to len do
      match Prng.Splitmix.int rng 6 with
      | 0 -> Buffer.add_char buf '"'
      | 1 -> Buffer.add_char buf '\\'
      | 2 -> Buffer.add_char buf (Char.chr (Prng.Splitmix.int rng 32))
      | 3 -> Buffer.add_string buf "\xe2\x86\x92"
      | 4 -> Buffer.add_char buf (Char.chr (32 + Prng.Splitmix.int rng 95))
      | _ -> Buffer.add_string buf "\\u0041"
    done;
    Buffer.contents buf
  in
  let big_int () =
    let near = max_int - Prng.Splitmix.int rng 1000 in
    if Prng.Splitmix.bool rng then near else -near
  in
  let leaf () =
    match Prng.Splitmix.int rng 5 with
    | 0 -> J.Null
    | 1 -> J.Bool (Prng.Splitmix.bool rng)
    | 2 -> J.Int (big_int ())
    | 3 -> J.Float ((Prng.Splitmix.float rng -. 0.5) *. 1e6)
    | _ -> J.String (nasty_string ())
  in
  let rec tree depth =
    if depth = 0 then leaf ()
    else
      match Prng.Splitmix.int rng 3 with
      | 0 -> leaf ()
      | 1 ->
        J.List
          (List.init (1 + Prng.Splitmix.int rng 3) (fun _ -> tree (depth - 1)))
      | _ ->
        (* The index suffix keeps keys unique within one object. *)
        J.Obj
          (List.init
             (1 + Prng.Splitmix.int rng 3)
             (fun i ->
               (Printf.sprintf "%s#%d" (nasty_string ()) i, tree (depth - 1))))
  in
  for case = 1 to 200 do
    let doc = tree 8 in
    List.iter
      (fun indent ->
        match J.of_string (J.to_string ~indent doc) with
        | Ok parsed ->
          if parsed <> doc then
            Alcotest.failf "case %d (indent %d): reparse differs" case indent
        | Error msg ->
          Alcotest.failf "case %d (indent %d): %s" case indent msg)
      [ 0; 2 ]
  done

let prop_parser_roundtrips_generated_documents =
  QCheck.Test.make ~name:"of_string round-trips generated snapshot documents"
    ~count:200
    (QCheck.make ~print:(fun t -> J.to_string t) gen_json)
    (fun doc ->
      List.for_all
        (fun indent ->
          match J.of_string (J.to_string ~indent doc) with
          | Ok parsed -> parsed = doc
          | Error _ -> false)
        [ 0; 2 ])

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick (isolated counter_semantics);
    Alcotest.test_case "disabled mode is a no-op" `Quick
      (isolated disabled_is_noop);
    Alcotest.test_case "timer semantics" `Quick (isolated timer_semantics);
    Alcotest.test_case "histogram semantics" `Quick
      (isolated histogram_semantics);
    Alcotest.test_case "histogram overflow bucket" `Quick
      (isolated histogram_overflow_bucket);
    Alcotest.test_case "empty histogram yields NaN" `Quick
      (isolated empty_histogram);
    Alcotest.test_case "registry rejects cross-type name reuse" `Quick
      (isolated registry_type_clash);
    Alcotest.test_case "reset zeroes metrics in place" `Quick
      (isolated reset_zeroes_in_place);
    Alcotest.test_case "gauge semantics" `Quick (isolated gauge_semantics);
    Alcotest.test_case "JSON golden rendering" `Quick (isolated json_golden);
    Alcotest.test_case "JSON parser round-trips the emitter" `Quick
      (isolated json_parse_roundtrip);
    Alcotest.test_case "metric snapshot round-trips" `Quick
      (isolated snapshot_roundtrip);
    Alcotest.test_case "snapshot structure" `Quick (isolated snapshot_structure);
    Alcotest.test_case "wall-clock readings live in the wall subtree" `Quick
      (isolated snapshot_wall_subtree);
    Alcotest.test_case "unset wall gauges are omitted" `Quick
      (isolated unset_wall_gauge_omitted);
    Alcotest.test_case "empty histogram snapshot emits nulls" `Quick
      (isolated empty_histogram_snapshot_nulls);
    Alcotest.test_case "infinite observation nulls the statistics" `Quick
      (isolated infinite_observation_nulls);
    Alcotest.test_case "seeded deep/escape/max_int round-trip" `Quick
      (isolated seeded_roundtrip_torture);
    QCheck_alcotest.to_alcotest prop_parser_roundtrips_generated_documents;
  ]
