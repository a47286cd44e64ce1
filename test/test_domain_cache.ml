(* The RMQ domain cache must be bit-for-bit identical to direct hashing,
   for every family and for adversarial range positions. *)

module Range = Rangeset.Range

let mk lo hi = Range.make ~lo ~hi

let agrees_with_direct kind () =
  let rng = Prng.Splitmix.create 11L in
  let scheme = Lsh.Scheme.create ~universe:1001 kind ~k:4 ~l:3 rng in
  let domain = mk 0 1000 in
  let cache = Lsh.Domain_cache.build scheme ~domain in
  let check r =
    Alcotest.(check (list int))
      (Range.to_string r)
      (Lsh.Scheme.identifiers_of_range scheme r)
      (Lsh.Domain_cache.identifiers cache r)
  in
  (* Boundary cases… *)
  List.iter check
    [ mk 0 0; mk 1000 1000; mk 0 1000; mk 0 1; mk 999 1000; mk 500 500 ];
  (* …and random ones. *)
  let qrng = Prng.Splitmix.create 12L in
  for _ = 1 to 200 do
    let a = Prng.Splitmix.int_in_range qrng ~lo:0 ~hi:1000 in
    let b = Prng.Splitmix.int_in_range qrng ~lo:0 ~hi:1000 in
    check (mk (min a b) (max a b))
  done

let non_zero_based_domain () =
  let rng = Prng.Splitmix.create 13L in
  let scheme = Lsh.Scheme.create ~universe:2001 Lsh.Family.Exact_minwise ~k:3 ~l:2 rng in
  let domain = mk 500 2000 in
  let cache = Lsh.Domain_cache.build scheme ~domain in
  let r = mk 700 900 in
  Alcotest.(check (list int)) "offset domain"
    (Lsh.Scheme.identifiers_of_range scheme r)
    (Lsh.Domain_cache.identifiers cache r)

let rejects_outside_domain () =
  let rng = Prng.Splitmix.create 14L in
  let scheme = Lsh.Scheme.create Lsh.Family.Approx_minwise ~k:2 ~l:2 rng in
  let cache = Lsh.Domain_cache.build scheme ~domain:(mk 0 100) in
  Alcotest.check_raises "outside"
    (Invalid_argument "Domain_cache.identifiers: range outside the cached domain")
    (fun () -> ignore (Lsh.Domain_cache.identifiers cache (mk 50 101)))

let exposes_scheme_and_domain () =
  let rng = Prng.Splitmix.create 15L in
  let scheme = Lsh.Scheme.create Lsh.Family.Linear ~universe:101 ~k:2 ~l:2 rng in
  let domain = mk 0 100 in
  let cache = Lsh.Domain_cache.build scheme ~domain in
  Alcotest.(check bool) "domain" true
    (Range.equal (Lsh.Domain_cache.domain cache) domain);
  Alcotest.(check int) "scheme l" 2 (Lsh.Scheme.l (Lsh.Domain_cache.scheme cache))

let tiny_domain () =
  (* A domain of one value still works (single-entry tables). *)
  let rng = Prng.Splitmix.create 16L in
  let scheme = Lsh.Scheme.create Lsh.Family.Exact_minwise ~k:2 ~l:2 rng in
  let domain = mk 7 7 in
  let cache = Lsh.Domain_cache.build scheme ~domain in
  Alcotest.(check (list int)) "point domain"
    (Lsh.Scheme.identifiers_of_range scheme (mk 7 7))
    (Lsh.Domain_cache.identifiers cache (mk 7 7))

(* Lengths where the sparse-table level changes: 1, every power of two,
   one more and one less than it, and the whole domain — each at the
   start, the end and an odd offset. A domain of exactly 2^10 values
   makes the top level a single block. *)
let level_edges kind () =
  List.iter
    (fun hi ->
      let rng = Prng.Splitmix.create 17L in
      let scheme = Lsh.Scheme.create ~universe:(hi + 1) kind ~k:3 ~l:2 rng in
      let domain = mk 0 hi in
      let cache = Lsh.Domain_cache.build scheme ~domain in
      let d = hi + 1 in
      let check r =
        Alcotest.(check (list int))
          (Printf.sprintf "domain [0,%d] range %s" hi (Range.to_string r))
          (Lsh.Scheme.identifiers_of_range scheme r)
          (Lsh.Domain_cache.identifiers cache r)
      in
      let lengths =
        List.concat_map
          (fun j ->
            let p = 1 lsl j in
            [ p - 1; p; p + 1 ])
          (List.init 11 Fun.id)
        |> List.filter (fun len -> len >= 1 && len <= d)
        |> List.cons d
      in
      List.iter
        (fun len ->
          List.iter
            (fun lo -> check (mk lo (lo + len - 1)))
            (List.sort_uniq Int.compare [ 0; d - len; Int.min 37 (d - len) ]))
        lengths)
    [ 1000; 1023 ]

let suite =
  [
    Alcotest.test_case "sparse-table level edges: exact min-wise" `Quick
      (level_edges Lsh.Family.Exact_minwise);
    Alcotest.test_case "sparse-table level edges: approx min-wise" `Quick
      (level_edges Lsh.Family.Approx_minwise);
    Alcotest.test_case "identical to direct: exact min-wise" `Quick
      (agrees_with_direct Lsh.Family.Exact_minwise);
    Alcotest.test_case "identical to direct: approx min-wise" `Quick
      (agrees_with_direct Lsh.Family.Approx_minwise);
    Alcotest.test_case "identical to direct: linear" `Quick
      (agrees_with_direct Lsh.Family.Linear);
    Alcotest.test_case "identical to direct: tabulated" `Quick
      (agrees_with_direct Lsh.Family.Random_tabulated);
    Alcotest.test_case "offset (non-zero-based) domain" `Quick
      non_zero_based_domain;
    Alcotest.test_case "rejects ranges outside the domain" `Quick
      rejects_outside_domain;
    Alcotest.test_case "accessors" `Quick exposes_scheme_and_domain;
    Alcotest.test_case "single-value domain" `Quick tiny_domain;
  ]
