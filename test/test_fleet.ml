(* Fleet-scale profiling: reduction-topology determinism, failure-aware
   merge nodes, the domain-safe Guard under concurrent access, and chaos
   runs (injected crashes/stragglers/corruption) that must stay
   byte-deterministic at any domain count, live or replayed. *)

module F = Pasta.Fleet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Reduction topology                                                  *)
(* ------------------------------------------------------------------ *)

let level_widths p = List.map Array.length p.F.pl_levels

let test_plan_shape () =
  let p = F.plan ~fanout:2 8 in
  Alcotest.(check (list int)) "8 leaves, fanout 2" [ 4; 2; 1 ] (level_widths p);
  check_int "7 merge nodes" 7 (F.plan_nodes p);
  let p = F.plan ~fanout:8 64 in
  Alcotest.(check (list int)) "64 leaves, fanout 8" [ 8; 1 ] (level_widths p);
  check_int "9 merge nodes" 9 (F.plan_nodes p);
  (* ragged width: 10 leaves at fanout 4 -> 3 groups, then 1 root *)
  let p = F.plan ~fanout:4 10 in
  Alcotest.(check (list int)) "10 leaves, fanout 4" [ 3; 1 ] (level_widths p);
  let p1 = F.plan ~fanout:4 1 in
  check_int "single leaf still has a root" 1 (F.plan_nodes p1);
  Alcotest.check_raises "fanout 1 rejected"
    (Invalid_argument "Fleet.plan: fanout must be >= 2") (fun () ->
      ignore (F.plan ~fanout:1 4))

let test_plan_partitions_leaves () =
  let p = F.plan ~fanout:3 17 in
  (* level-major ids are dense and stable *)
  let next = ref 0 in
  List.iter
    (fun level ->
      Array.iter
        (fun n ->
          check_int "level-major id" !next n.F.pn_id;
          incr next)
        level)
    p.F.pl_levels;
  check_int "id count = node count" (F.plan_nodes p) !next;
  (* every leaf feeds exactly one first-level node, in order *)
  let fed =
    List.concat_map
      (fun n -> n.F.pn_children)
      (Array.to_list (List.hd p.F.pl_levels))
  in
  Alcotest.(check (list int)) "leaves partitioned in order"
    (List.init 17 Fun.id) fed

(* ------------------------------------------------------------------ *)
(* Failure-aware reduction over synthesized leaves                     *)
(* ------------------------------------------------------------------ *)

(* One real per-shard summary from a tiny instrumented run; scaled clones
   stand in for distinct devices (uniform integer scaling preserves every
   Devagg.validate invariant). *)
let leaf_summary =
  lazy
    (let device = Gpusim.Device.create ~seed:77L Gpusim.Arch.a100 in
     let acc = ref [] in
     let tool =
       {
         (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_parallel "fleet-test") with
         Pasta.Tool.on_device_summary = (fun _ s -> acc := s :: !acc);
       }
     in
     let (), _ =
       Pasta.Session.run ~tool device (fun () ->
           let buf = Gpusim.Device.malloc device (1 lsl 20) in
           ignore
             (Gpusim.Device.launch device
                (Gpusim.Kernel.make ~name:"fleet_test_kernel"
                   ~grid:(Gpusim.Dim3.make 32) ~block:(Gpusim.Dim3.make 128)
                   ~regions:
                     [
                       Gpusim.Kernel.region ~base:buf.Gpusim.Device_mem.base
                         ~bytes:(1 lsl 18) ~accesses:4_000 ();
                     ]
                   ())))
     in
     Pasta.Devagg.merge_summaries (List.rev !acc))

let scale k (s : Pasta.Devagg.summary) =
  {
    s with
    Pasta.Devagg.objects = List.map (fun (o, w) -> (o, w * k)) s.objects;
    blocks = List.map (fun (b, c) -> (b, c * k)) s.blocks;
    regions = List.map (fun (r, w) -> (r, w * k)) s.regions;
    sampled_records = s.sampled_records * k;
    true_accesses = s.true_accesses * k;
    writes = s.writes * k;
  }

let leaves n = Array.init n (fun d -> Some (scale (1 + (d mod 5)) (Lazy.force leaf_summary)))

let summary_text = Format.asprintf "%a" Pasta.Devagg.pp

let test_merge_validate_roundtrip () =
  let s = Lazy.force leaf_summary in
  Alcotest.(check (result unit string)) "leaf validates" (Ok ())
    (Pasta.Devagg.validate s);
  let m = Pasta.Devagg.merge_summaries [ s; scale 3 s; scale 2 s ] in
  Alcotest.(check (result unit string)) "merge validates" (Ok ())
    (Pasta.Devagg.validate m);
  check_int "merged totals are sums" (6 * s.Pasta.Devagg.true_accesses)
    m.Pasta.Devagg.true_accesses

(* The chunked extents against a list-of-pairs reference: sort every
   input pair, then fuse overlapping or touching ones.  Inputs are sorted
   and disjoint each (as merge nodes receive them) but start and space
   their extents in a narrow range, so extents of different inputs
   overlap, touch and nest; long inputs span several 128-pair chunks. *)
let g_extents =
  QCheck.Gen.(
    let* start = int_range 0 40 in
    let* n = oneof [ int_range 0 8; int_range 100 300 ] in
    let* steps = list_repeat n (pair (int_range 1 12) (int_range 1 12)) in
    let _, pairs =
      List.fold_left
        (fun (at, acc) (gap, len) -> (at + len + gap, (at, at + len) :: acc))
        (start, []) steps
    in
    return (List.rev pairs))

let reference_coalesce inputs =
  let rec fuse = function
    | (b, l) :: (b', l') :: rest when b' <= l -> fuse ((b, max l l') :: rest)
    | p :: rest -> p :: fuse rest
    | [] -> []
  in
  fuse (List.sort compare (List.concat inputs))

let extents_only coalesced =
  {
    Pasta.Devagg.objects = [];
    blocks = [];
    coalesced;
    regions = [];
    sampled_records = 0;
    true_accesses = 0;
    writes = 0;
    est_rate = 1.0;
  }

let prop_merge_extents_match_reference =
  QCheck.Test.make ~count:500
    ~name:"merge_summaries extents == sort-then-fuse over pair lists"
    (QCheck.make
       ~print:(fun l ->
         String.concat " | "
           (List.map
              (fun ps ->
                String.concat ";"
                  (List.map (fun (b, l) -> Printf.sprintf "%d-%d" b l) ps))
              l))
       QCheck.Gen.(list_size (int_range 1 9) g_extents))
    (fun inputs ->
      let m =
        Pasta.Devagg.merge_summaries
          (List.map (fun ps -> extents_only (Pasta.Extents.of_pairs ps)) inputs)
      in
      m.Pasta.Devagg.coalesced
      = Pasta.Extents.of_pairs (reference_coalesce inputs)
      && Pasta.Devagg.validate m = Ok ())

let test_validate_rejects_bad_extents () =
  let s = Lazy.force leaf_summary in
  let pairs = Pasta.Extents.to_pairs s.Pasta.Devagg.coalesced in
  check_bool "leaf has two extents to disorder" true (List.length pairs >= 2);
  let rejects what coalesced =
    match Pasta.Devagg.validate { s with Pasta.Devagg.coalesced } with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "validate accepted %s" what
  in
  let last = snd (List.nth pairs (List.length pairs - 1)) in
  rejects "an odd-length chunk"
    (s.Pasta.Devagg.coalesced @ [ [| last + 8 |] ]);
  rejects "unsorted extents"
    (Pasta.Extents.of_pairs
       (List.nth pairs 1 :: List.hd pairs :: List.tl (List.tl pairs)));
  rejects "an empty extent"
    (Pasta.Extents.of_pairs (pairs @ [ (last + 8, last + 8) ]));
  rejects "an inverted extent" [ [| 100; 50 |] ];
  rejects "disorder across chunks"
    (Pasta.Extents.of_pairs pairs @ [ [| 0; 1 |] ])

let test_tree_equals_flat () =
  let ls = leaves 20 in
  let red = F.reduce ~seed:0x5eedL ~fanout:4 ls in
  let flat = F.flat_merge (Array.to_list ls |> List.filter_map Fun.id) in
  check_bool "tree summary present" true (red.F.red_summary <> None);
  check_string "tree == flat bytes"
    (summary_text (Option.get flat))
    (summary_text (Option.get red.F.red_summary));
  Alcotest.(check (list int)) "all devices aggregated" (List.init 20 Fun.id)
    red.F.red_devices;
  check_bool "nothing dropped" true (red.F.red_dropped = [])

let test_reduce_skips_missing () =
  let ls = leaves 9 in
  ls.(2) <- None;
  ls.(7) <- None;
  let red = F.reduce ~seed:1L ~fanout:3 ls in
  Alcotest.(check (list int)) "missing leaves excluded" [ 0; 1; 3; 4; 5; 6; 8 ]
    red.F.red_devices

let corrupting_rates =
  { Gpusim.Faults.default_fleet_rates with Gpusim.Faults.corrupt_summary = 0.5 }

let test_reduce_drops_corrupt () =
  let ls = leaves 16 in
  let red = F.reduce ~rates:corrupting_rates ~seed:0xBADL ~fanout:4 ls in
  check_bool "corruption at this rate drops someone" true
    (red.F.red_dropped <> []);
  let dropped = List.concat_map snd red.F.red_dropped in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "device %d not dropped AND aggregated" d)
        false
        (List.mem d red.F.red_devices))
    dropped;
  Alcotest.(check (list int)) "dropped + aggregated = all leaves"
    (List.init 16 Fun.id)
    (List.sort compare (red.F.red_devices @ dropped));
  check_bool "survivors still merge" true (red.F.red_summary <> None)

let reduction_fingerprint red =
  Format.asprintf "%s|%s|%s"
    (match red.F.red_summary with Some s -> summary_text s | None -> "-")
    (String.concat "," (List.map string_of_int red.F.red_devices))
    (String.concat ";"
       (List.map
          (fun (n, ds) ->
            Printf.sprintf "%d:[%s]" n
              (String.concat "," (List.map string_of_int ds)))
          red.F.red_dropped))

let test_reduce_pool_invariant () =
  let ls = leaves 24 in
  let serial = F.reduce ~rates:corrupting_rates ~seed:0xBADL ~fanout:4 ls in
  List.iter
    (fun size ->
      let pool = Pasta_util.Domain_pool.global ~size in
      let par = F.reduce ~pool ~rates:corrupting_rates ~seed:0xBADL ~fanout:4 ls in
      check_string
        (Printf.sprintf "pool of %d matches serial" size)
        (reduction_fingerprint serial) (reduction_fingerprint par))
    [ 1; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Guard under concurrent quarantine / half-open probes                *)
(* ------------------------------------------------------------------ *)

let test_concurrent_trip_once () =
  let trips = Atomic.make 0 in
  let g =
    Pasta.Guard.create ~threshold:1 ~cooldown_kernels:max_int
      ~on_trip:(fun ~failures:_ -> Atomic.incr trips)
      (Pasta.Tool.default "race-trip")
  in
  let barrier = Atomic.make 0 in
  let doms =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < 8 do
              Domain.cpu_relax ()
            done;
            Pasta.Guard.call g Pasta.Guard.On_event (fun _ -> failwith "boom")))
  in
  List.iter Domain.join doms;
  check_int "a concurrent failure burst trips exactly once" 1
    (Atomic.get trips);
  check_int "one quarantine recorded" 1 (Pasta.Guard.quarantine_count g);
  check_string "breaker is quarantined" "quarantined"
    (Pasta.Guard.state_name (Pasta.Guard.state g))

(* A persistent team of worker domains for the race model.  Spawning and
   joining a few domains per case, thousands of times over, aborts the
   OCaml 5.1 runtime now and then ("allocation failure during minor GC"),
   so the team is spawned once and each case is one round: every member
   is woken together, members below [active] run [job] with their index,
   and the round ends when all have reported back.  The members stay
   parked between rounds and die with the process. *)
type team = {
  t_mu : Mutex.t;
  t_cv : Condition.t;
  mutable t_round : int;
  mutable t_job : int -> unit;
  mutable t_active : int;
  mutable t_done : int;
}

let team_size = 4

let team =
  lazy
    (let t =
       {
         t_mu = Mutex.create ();
         t_cv = Condition.create ();
         t_round = 0;
         t_job = ignore;
         t_active = 0;
         t_done = 0;
       }
     in
     for w = 0 to team_size - 1 do
       ignore
         (Domain.spawn (fun () ->
              let seen = ref 0 in
              while true do
                Mutex.lock t.t_mu;
                while t.t_round = !seen do
                  Condition.wait t.t_cv t.t_mu
                done;
                seen := t.t_round;
                let job = t.t_job and active = t.t_active in
                Mutex.unlock t.t_mu;
                if w < active then job w;
                Mutex.lock t.t_mu;
                t.t_done <- t.t_done + 1;
                Condition.broadcast t.t_cv;
                Mutex.unlock t.t_mu
              done)
           : unit Domain.t)
     done;
     t)

let team_round ~active job =
  let t = Lazy.force team in
  Mutex.lock t.t_mu;
  t.t_job <- job;
  t.t_active <- active;
  t.t_done <- 0;
  t.t_round <- t.t_round + 1;
  Condition.broadcast t.t_cv;
  while t.t_done < team_size do
    Condition.wait t.t_cv t.t_mu
  done;
  Mutex.unlock t.t_mu

(* Random race model: [domains] workers each replay a script of
   succeed/fail calls interleaved with cooldown ticks against one guard
   with an aggressive (1-kernel) cooldown, so quarantine, half-open
   probing and reinstatement all race.  Whatever the interleaving, the
   breaker must stay internally consistent: every call either ran or was
   suppressed, failure/trip/reinstate counters relate sanely, and no
   exception escapes.  In particular one quarantine never yields two
   reinstatements: at most one half-open probe is in flight, even while
   concurrent cooldown ticks age the quarantine. *)
let guard_race_model =
  QCheck.Test.make ~count:3000 ~name:"guard: concurrent race invariants"
    QCheck.(
      pair (int_range 2 4) (small_list (small_list bool)))
    (fun (domains, scripts) ->
      let scripts =
        Array.init domains (fun i ->
            match List.nth_opt scripts i with Some s -> s | None -> [ true; false ])
      in
      let executed = Atomic.make 0 in
      let failures_attempted =
        Array.fold_left
          (fun acc s -> acc + List.length (List.filter Fun.id s))
          0 scripts
      in
      let total_calls = Array.fold_left (fun acc s -> acc + List.length s) 0 scripts in
      let trips = Atomic.make 0 in
      let g =
        Pasta.Guard.create ~threshold:2 ~cooldown_kernels:1
          ~on_trip:(fun ~failures:_ -> Atomic.incr trips)
          (Pasta.Tool.default "race-model")
      in
      team_round ~active:domains (fun w ->
          List.iter
            (fun fail ->
              Pasta.Guard.note_kernel g;
              Pasta.Guard.call g Pasta.Guard.On_event (fun _ ->
                  Atomic.incr executed;
                  if fail then failwith "boom"))
            scripts.(w));
      let failures = Pasta.Guard.total_failures g in
      let quarantines = Pasta.Guard.quarantine_count g in
      let reinstated = Pasta.Guard.reinstated_count g in
      let suppressed = Pasta.Guard.suppressed_count g in
      Atomic.get executed + suppressed = total_calls
      && failures <= failures_attempted
      && quarantines = Atomic.get trips
      && quarantines <= failures
      && reinstated <= quarantines
      && suppressed <= total_calls)

(* ------------------------------------------------------------------ *)
(* Fleet chaos runs                                                    *)
(* ------------------------------------------------------------------ *)

let chaos_cfg ?capture_prefix ~devices () =
  {
    (F.default_cfg ~devices ()) with
    F.fault_rates = Some Gpusim.Faults.default_fleet_rates;
    deadline_us = 150.0;
    retries = 2;
    backoff_base_us = 10.0;
    seed = 0xC0FFEEL;
    capture_prefix;
  }

let with_domains d f =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int d);
  Fun.protect ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_DOMAINS") f

let test_chaos_partial_report () =
  let r = F.run (chaos_cfg ~devices:12 ()) in
  check_int "every device reported" 12 (List.length r.F.devices);
  check_int "statuses partition the fleet" 12 (r.F.fresh + r.F.stale + r.F.missing);
  check_bool "chaos at this seed loses someone" true
    (r.F.missing > 0 || r.F.dropped_at_merge <> []);
  (* every missing device is named in the report with its reason *)
  List.iter
    (fun d ->
      match d.F.fr_status with
      | F.Missing reason ->
          check_bool
            (Printf.sprintf "report names missing device %d" d.F.fr_dev)
            true
            (contains r.F.report
               (Printf.sprintf "device %3d: missing:%s" d.F.fr_dev
                  (F.reason_name reason)))
      | F.Fresh | F.Stale -> ())
    r.F.devices;
  (* dropped devices are excluded from coverage *)
  let aggregated =
    List.length
      (List.filter
         (fun d -> d.F.fr_status <> F.Missing F.Crashed
                   && d.F.fr_status <> F.Missing F.Quarantined
                   && d.F.fr_status <> F.Missing F.Timeout)
         r.F.devices)
    - List.length (List.concat_map snd r.F.dropped_at_merge)
  in
  check_bool "coverage matches aggregated/total" true
    (Float.abs (r.F.coverage -. (float_of_int aggregated /. 12.0)) < 1e-9)

let test_chaos_deterministic_across_domains () =
  let reports =
    List.map (fun d -> with_domains d (fun () -> (F.run (chaos_cfg ~devices:12 ())).F.report))
      [ 1; 4; 8 ]
  in
  match reports with
  | [ a; b; c ] ->
      check_string "1 domain = 4 domains" a b;
      check_string "4 domains = 8 domains" b c
  | _ -> assert false

let test_all_timeout_names_everyone () =
  let cfg =
    { (chaos_cfg ~devices:5 ()) with F.deadline_us = 10.0; fault_rates = None }
  in
  let r = F.run cfg in
  check_int "no device beats a 10us deadline" 5 r.F.missing;
  check_bool "no aggregate" true (r.F.summary = None);
  check_bool "coverage is zero" true (r.F.coverage = 0.0);
  check_bool "report names the timeouts" true
    (contains r.F.report "missing (timeout): [0,1,2,3,4]")

let test_coverage_reweights_estimate () =
  (* force exactly the stragglers out: deadline catches normal shards *)
  let r = F.run (chaos_cfg ~devices:12 ()) in
  match r.F.summary with
  | Some s when r.F.coverage < 1.0 ->
      check_bool "partial aggregate is annotated as estimate" true
        (s.Pasta.Devagg.est_rate < 1.0);
      check_bool "stderr widened" true (Pasta.Devagg.rel_stderr s > 0.0)
  | Some _ -> check_bool "full coverage keeps exact rate" true (r.F.coverage = 1.0)
  | None -> Alcotest.fail "chaos run lost every device"

let test_capture_replay_byte_identical () =
  let prefix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pasta_fleet_%d" (Unix.getpid ()))
  in
  let devices = 6 in
  let cfg = chaos_cfg ~capture_prefix:prefix ~devices () in
  Fun.protect
    ~finally:(fun () ->
      for d = 0 to devices - 1 do
        let p = F.trace_path prefix d in
        if Sys.file_exists p then Sys.remove p
      done)
    (fun () ->
      let live = F.run cfg in
      let replayed = F.replay cfg in
      check_string "replayed report is byte-identical" live.F.report
        replayed.F.report;
      check_int "same missing set" live.F.missing replayed.F.missing)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "plan: shapes and node counts" `Quick test_plan_shape;
    Alcotest.test_case "plan: level-major ids partition the leaves" `Quick
      test_plan_partitions_leaves;
    Alcotest.test_case "merge_summaries/validate round trip" `Quick
      test_merge_validate_roundtrip;
    qtest prop_merge_extents_match_reference;
    Alcotest.test_case "validate rejects malformed extent arrays" `Quick
      test_validate_rejects_bad_extents;
    Alcotest.test_case "tree reduction == flat merge" `Quick test_tree_equals_flat;
    Alcotest.test_case "reduction skips missing leaves" `Quick
      test_reduce_skips_missing;
    Alcotest.test_case "merge nodes drop corrupt summaries" `Quick
      test_reduce_drops_corrupt;
    Alcotest.test_case "reduction invariant under pool size" `Quick
      test_reduce_pool_invariant;
    Alcotest.test_case "guard: concurrent failure burst trips once" `Quick
      test_concurrent_trip_once;
    qtest guard_race_model;
    Alcotest.test_case "chaos: partial report names every loss" `Quick
      test_chaos_partial_report;
    Alcotest.test_case "chaos: byte-deterministic at 1/4/8 domains" `Quick
      test_chaos_deterministic_across_domains;
    Alcotest.test_case "all-timeout fleet reports everyone missing" `Quick
      test_all_timeout_names_everyone;
    Alcotest.test_case "coverage re-weights the aggregate estimate" `Quick
      test_coverage_reweights_estimate;
    Alcotest.test_case "fleet capture -> replay is byte-identical" `Quick
      test_capture_replay_byte_identical;
  ]
