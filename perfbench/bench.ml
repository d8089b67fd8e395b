(* The repository benchmark.  One process runs one workload as a closed
   loop with a single client: jobs run back to back in a seeded order, in
   whole sweeps over the workload's job kinds, and every job's report is
   checked.  The last stdout line is the result object; the line before it
   describes the machine.  README.md explains the workloads and metrics.

     bench.exe --workload fine_zoo|coarse_zoo|trace_replay|fleet_256
               [--seed N] [--seconds S] [--trace 0|1] *)

let t_process = Unix.gettimeofday ()
let now () = Unix.gettimeofday ()
let default_seed = 1
let work_dir = Filename.concat "perfbench" "_work"
let expected_file = Filename.concat "perfbench" "expected_digests.txt"

(* ---- arguments ---------------------------------------------------------- *)

let usage msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline
    "usage: bench.exe --workload fine_zoo|coarse_zoo|trace_replay|fleet_256 \
     [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let workload, seed, seconds, traced_run =
  let w = ref None and s = ref default_seed and secs = ref 10.0 in
  let t = ref false in
  let rec go = function
    | "--workload" :: v :: r -> w := Some v; go r
    | "--seed" :: v :: r -> s := int_of_string v; go r
    | "--seconds" :: v :: r -> secs := float_of_string v; go r
    | "--trace" :: ("0" | "1" as v) :: r -> t := v = "1"; go r
    | [] -> ()
    | a :: _ -> usage ("bad argument " ^ a)
  in
  (try go (List.tl (Array.to_list Sys.argv))
   with Failure _ -> usage "bad number");
  if !secs <= 0.0 then usage "--seconds must be positive";
  match !w with
  | Some w -> (w, !s, !secs, !t)
  | None -> usage "--workload is required"

(* ---- spans -------------------------------------------------------------- *)

(* Spans are recorded only while a traced job runs.  Each one notes the
   program's own attributed time (Telemetry's non-root self time) at both
   ends, so the root time spent inside it is known; a span's self time is
   that root time minus its child spans' root time.  Program layers that
   have no public entry point inside a session (handler, dispatch, ring,
   devagg, capture, replay I/O, fleet, tool callbacks) come from
   Telemetry's attribution rows instead. *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_t0 : float;
  mutable sp_t1 : float;
}

let tracing = ref false
let finished : span list ref = ref []
let next_id = ref 0
let stack : (span * float * float ref) list ref = ref []

(* Self time (us) per (job class, layer) and span durations (us) per span
   name, summed over the traced jobs. *)
let current_cls = ref ""
let class_layers : (string * string, float) Hashtbl.t = Hashtbl.create 64
let durations : (string, float) Hashtbl.t = Hashtbl.create 16

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let program_us () = snd (Pasta.Telemetry.overhead_snapshot ())

let span name layer f =
  if not !tracing then f ()
  else begin
    let parent = match !stack with (s, _, _) :: _ -> s.sp_id | [] -> -1 in
    incr next_id;
    let p0 = program_us () in
    let sp =
      { sp_id = !next_id; sp_parent = parent; sp_name = name; sp_t0 = now ();
        sp_t1 = 0.0 }
    in
    let children = ref 0.0 in
    stack := (sp, p0, children) :: !stack;
    Fun.protect f ~finally:(fun () ->
        sp.sp_t1 <- now ();
        let dur = (sp.sp_t1 -. sp.sp_t0) *. 1e6 in
        let root = dur -. (program_us () -. p0) in
        stack := List.tl !stack;
        (match !stack with (_, _, c) :: _ -> c := !c +. root | [] -> ());
        bump class_layers (!current_cls, layer) (root -. !children);
        bump durations name dur;
        finished := sp :: !finished)
  end

let write_spans () =
  let path = Filename.concat work_dir ("spans-" ^ workload ^ ".tsv") in
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_us\tend_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%.1f\t%.1f\n" s.sp_id s.sp_parent
        s.sp_name
        ((s.sp_t0 -. t_process) *. 1e6)
        ((s.sp_t1 -. t_process) *. 1e6))
    (List.sort (fun a b -> compare a.sp_id b.sp_id) !finished);
  close_out oc

(* ---- run-wide counters of the traced jobs ------------------------------- *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let count k v = if !tracing then bump counts k v
let get k = Option.value ~default:0.0 (Hashtbl.find_opt counts k)
let peak_records = ref 0

(* Every tool callback is wrapped to count calls; the records a parallel
   device summary carries are counted on the way through.  Plain int
   counters keep the wrapper's own cost out of the tool rows. *)
let tool_calls = ref 0
let devagg_records = ref 0

let wrap_tool (t : Pasta.Tool.t) =
  if not !tracing then t
  else
    let c () = incr tool_calls in
    let opt = Option.map (fun f k b -> c (); f k b) in
    {
      t with
      on_event = (fun e -> c (); t.on_event e);
      on_kernel_begin = (fun k -> c (); t.on_kernel_begin k);
      on_kernel_end = (fun k s -> c (); t.on_kernel_end k s);
      on_mem_summary = (fun k l -> c (); t.on_mem_summary k l);
      on_device_summary =
        (fun k s ->
          c ();
          devagg_records := !devagg_records + s.Pasta.Devagg.sampled_records;
          t.on_device_summary k s);
      on_access = (fun k a -> c (); t.on_access k a);
      on_access_batch = opt t.on_access_batch;
      on_access_columns = opt t.on_access_columns;
      on_kernel_profile = (fun k p -> c (); t.on_kernel_profile k p);
      on_operator = (fun n p i -> c (); t.on_operator n p i);
      on_tensor = (fun x -> c (); t.on_tensor x);
    }

let make_tool name =
  match Pasta.Registry.find name with
  | Some mk -> wrap_tool (mk ())
  | None -> failwith ("unknown tool " ^ name)

let render report =
  span "tools.report" "tools" (fun () ->
      Format.asprintf "%t" report)

let note_processor_stats (st : Pasta.Processor.stats) =
  count "processor.events_seen" (float_of_int st.events_seen);
  count "processor.events_dispatched" (float_of_int st.events_dispatched);
  count "processor.memo_hits" (float_of_int st.objmap_memo_hits);
  count "processor.memo_misses" (float_of_int st.objmap_memo_misses);
  count "ring_buffer.dropped" (float_of_int st.records_dropped);
  if !tracing then
    peak_records := max !peak_records st.records_buffered_peak

(* ---- jobs --------------------------------------------------------------- *)

(* A job returns its rendered report and the problems its own checks
   found; any problem, or an exception, fails the job. *)
type job = { kind : string; cls : string; run : unit -> string * string list }

let health_problems (h : Pasta.Session.health) =
  List.concat
    [
      (if h.records_dropped > 0 then
         [ Printf.sprintf "%d records dropped" h.records_dropped ]
       else []);
      (if h.quarantines > 0 then [ "tool quarantined" ] else []);
      (if h.tool_failures > 0 then
         [ Printf.sprintf "%d tool failures" h.tool_failures ]
       else []);
      (if h.chunks_skipped > 0 then [ "trace chunks skipped" ] else []);
    ]

let trace_sizes : float list ref = ref []

(* Set-up records one trace of each live job kind through this. *)
let setup_capture : string option ref = ref None

(* One live profiled run: attach, build and run the model, detach, render. *)
let live ?sample_cap ?capture ?(regions = false) ~abbr ~mode ~iters tool_name
    () =
  let capture = if capture = None then !setup_capture else capture in
  let tool = make_tool tool_name in
  let device =
    span "gpusim.device" "gpusim" (fun () ->
        Gpusim.Device.create ~seed:(Int64.of_int seed) Gpusim.Arch.a100)
  in
  let ctx =
    span "dlfw.ctx" "dlfw" (fun () ->
        Dlfw.Ctx.create ~seed:(Int64.of_int seed) device)
  in
  if regions then Pasta.Config.set "ACCEL_PROF_REGIONS" "fine";
  let session =
    Fun.protect
      ~finally:(fun () ->
        if regions then Pasta.Config.unset "ACCEL_PROF_REGIONS")
      (fun () ->
        span "session.attach" "session" (fun () ->
            Pasta.Session.attach ?sample_cap ?capture ~tool device))
  in
  let result =
    match
      let model =
        span "dlfw.build" "dlfw" (fun () -> Dlfw.Runner.build ctx abbr)
      in
      span "gpusim.run" "gpusim" (fun () -> Dlfw.Runner.run ctx model ~mode ~iters)
    with
    | () ->
        span "session.detach" "session" (fun () -> Pasta.Session.detach session)
    | exception e ->
        ignore (Pasta.Session.detach session);
        raise e
  in
  let report = render result.report in
  Dlfw.Ctx.destroy ctx;
  let h = result.health in
  count "gpusim.kernels" (float_of_int result.kernels);
  note_processor_stats
    (Pasta.Processor.stats (Pasta.Session.processor session));
  (match capture with
  | Some _ ->
      trace_sizes := float_of_int h.bytes_written :: !trace_sizes;
      count "ptrace.chunks" (float_of_int h.chunks);
      count "ptrace.record_jobs" 1.0
  | None -> ());
  (report, health_problems h)

let trace_path = Filename.concat work_dir "trace_replay.ptrace"
let last_live_report = ref ""

let record_job () =
  let report, problems =
    live ~sample_cap:1024 ~capture:trace_path ~abbr:"BERT"
      ~mode:Dlfw.Runner.Inference ~iters:1 "hotness_fine" ()
  in
  last_live_report := report;
  (report, problems)

let replay_job tool_name () =
  let tool = make_tool tool_name in
  let o =
    span "replay.run" "replay" (fun () -> Pasta.Replay.run ~tool trace_path)
  in
  let report = render o.report in
  let st = Pasta.Processor.stats o.processor in
  note_processor_stats st;
  count "replay.ops" (float_of_int o.ops_replayed);
  let problems =
    List.concat
      [
        (if o.chunks_skipped > 0 then [ "trace chunks skipped" ] else []);
        (if st.records_dropped > 0 then [ "records dropped" ] else []);
        (if st.tool_failures > 0 then [ "tool failures" ] else []);
        (if tool_name = "hotness_fine" && report <> !last_live_report then
           [ "replayed report differs from the live report" ]
         else []);
      ]
  in
  (report, problems)

let fleet_cfg ?capture_prefix () =
  {
    (Pasta.Fleet.default_cfg ~devices:256 ()) with
    kernels = 8;
    accesses_per_kernel = 100_000;
    fault_rates = Some Gpusim.Faults.default_fleet_rates;
    seed = Int64.of_int seed;
    capture_prefix;
  }

let fleet_job ?capture_prefix () =
  let cfg = fleet_cfg ?capture_prefix () in
  let r = span "fleet.run" "fleet" (fun () -> Pasta.Fleet.run cfg) in
  (* A device may be missing only when every attempt it made was planned
     to fail by the seeded fault plan. *)
  let unplanned =
    List.filter
      (fun (d : Pasta.Fleet.device_report) ->
        match d.fr_status with
        | Pasta.Fleet.Missing _ ->
            List.exists
              (fun attempt ->
                Gpusim.Faults.device_fate
                  ~rates:Gpusim.Faults.default_fleet_rates ~seed:cfg.seed
                  ~device:d.fr_dev ~attempt ~kernels:cfg.kernels
                = Gpusim.Faults.Healthy)
              (List.init d.fr_attempts Fun.id)
        | _ -> false)
      r.devices
  in
  count "fleet.merge_nodes" (float_of_int r.merge_nodes);
  count "fleet.retries" (float_of_int r.retries_total);
  count "fleet.devices" (float_of_int (List.length r.devices));
  count "fleet.coverage" r.coverage;
  count "fleet.dropped_at_merge"
    (float_of_int
       (List.fold_left (fun a (_, l) -> a + List.length l) 0 r.dropped_at_merge));
  let problems =
    List.concat
      [
        (if unplanned <> [] then
           [ Printf.sprintf "%d devices missing beyond the fault plan"
               (List.length unplanned) ]
         else []);
        (if r.records_dropped > 0 then [ "records dropped" ] else []);
      ]
  in
  (r.report, problems)

let jobs_of_workload () =
  let infer = Dlfw.Runner.Inference in
  match workload with
  | "fine_zoo" ->
      List.concat_map
        (fun abbr ->
          List.map
            (fun tool ->
              { kind = abbr ^ "/" ^ tool; cls = "live";
                run = live ~sample_cap:1024 ~abbr ~mode:infer ~iters:1 tool })
            [ "hotness_fine"; "memory_charact_par" ])
        [ "BERT"; "GPT-2"; "RN-34" ]
  | "coarse_zoo" ->
      List.concat_map
        (fun abbr ->
          List.concat_map
            (fun mode ->
              let iters = Dlfw.Runner.default_iters ~abbr ~mode in
              List.map
                (fun tool ->
                  { kind = String.concat "/"
                        [ abbr; Dlfw.Runner.mode_to_string mode; tool ];
                    cls = "live";
                    run = live ~regions:(tool = "region_latency") ~abbr ~mode
                        ~iters tool })
                [ "kernel_freq"; "op_summary"; "memory_charact"; "hotness";
                  "region_latency" ])
            [ Dlfw.Runner.Inference; Dlfw.Runner.Train ])
        Dlfw.Runner.all_abbrs
  | "trace_replay" ->
      { kind = "record/hotness_fine"; cls = "record"; run = record_job }
      :: List.map
           (fun tool ->
             { kind = "replay/" ^ tool; cls = "replay"; run = replay_job tool })
           [ "hotness_fine"; "kernel_freq"; "memory_charact_cs_cpu";
             "memory_charact_par" ]
  | "fleet_256" -> [ { kind = "fleet"; cls = "fleet"; run = fleet_job } ]
  | w -> usage ("unknown workload " ^ w)

(* ---- measurement -------------------------------------------------------- *)

let rng = Random.State.make [| seed; 0x9e37 |]

let shuffle l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The record job opens every trace_replay sweep: its replays read it. *)
let sweep_order jobs =
  match jobs with
  | ({ cls = "record"; _ } as r) :: rest -> r :: shuffle rest
  | l -> shuffle l

let expected =
  let tbl = Hashtbl.create 64 in
  (if Sys.file_exists expected_file then
     let ic = open_in expected_file in
     (try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ w; s; k; d ]
            when w = workload && (s = "*" || s = string_of_int seed) ->
              Hashtbl.replace tbl k d
          | _ -> ()
        done
      with End_of_file -> ());
     close_in ic);
  tbl

let first_digest : (string, string) Hashtbl.t = Hashtbl.create 64
let attempted = ref 0
let failed = ref 0

let check_digest kind report =
  let d = Digest.to_hex (Digest.string report) in
  match Hashtbl.find_opt first_digest kind with
  | None ->
      Hashtbl.replace first_digest kind d;
      Printf.eprintf "digest %s %s %s\n%!" workload kind d;
      let want = Hashtbl.find_opt expected kind in
      if (seed = default_seed || want <> None) && want <> Some d then
        [ "digest differs from the expected digest" ]
      else []
  | Some d0 when d0 <> d -> [ "report differs from this run's first report" ]
  | Some _ -> []

(* Root-self layers come from the benchmark's spans, the rest from
   Telemetry's attribution rows. *)
let layer_of_row label =
  match label with
  | "handler (vendor adapt)" -> Some "vendor"
  | "processor (dispatch)" -> Some "processor"
  | "ring buffer" -> Some "ring_buffer"
  | "devagg (parallel agg)" -> Some "devagg"
  | "capture I/O" -> Some "capture"
  | "replay I/O" -> Some "replay"
  | "telemetry export" -> Some "telemetry"
  | "fleet orchestration" -> Some "fleet"
  | l when String.length l > 5 && String.sub l 0 5 = "tool:" -> Some "tools"
  | _ -> None

let class_wall : (string, float) Hashtbl.t = Hashtbl.create 8

let run_job ~traced j =
  tracing := traced;
  current_cls := j.cls;
  incr attempted;
  (* Every job starts with the previous jobs' garbage collected, so its
     time and the heap it grows depend on the job alone, not on the order
     the others ran in.  The heap is kept, not compacted: returning it to
     the system would make every job fault its pages in again. *)
  Gc.full_major ();
  if traced then Pasta.Telemetry.reset ();
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let outcome =
    try Ok (span "job" "bench" j.run) with e -> Error (Printexc.to_string e)
  in
  let dt = now () -. t0 in
  let problems =
    match outcome with
    | Ok (report, problems) -> problems @ check_digest j.kind report
    | Error e -> [ "raised " ^ e ]
  in
  if problems <> [] then begin
    incr failed;
    List.iter (fun p -> Printf.eprintf "FAILED %s: %s\n%!" j.kind p) problems
  end;
  if traced then begin
    let gc1 = Gc.quick_stat () in
    count "gc.minor_words" (gc1.minor_words -. gc0.minor_words);
    count "gc.major_words" (gc1.major_words -. gc0.major_words);
    count "jobs" 1.0;
    count "tools.calls" (float_of_int !tool_calls);
    count "devagg.records" (float_of_int !devagg_records);
    tool_calls := 0;
    devagg_records := 0;
    List.iter
      (fun (r : Pasta.Telemetry.row) ->
        match layer_of_row r.row_label with
        | Some l ->
            bump class_layers (j.cls, l) r.row_self_us;
            if l = "vendor" then
              count "vendor.handler_calls" (float_of_int r.row_count)
        | None -> ())
      (Pasta.Telemetry.attribution ()).at_rows;
    bump class_wall j.cls (dt *. 1e6)
  end;
  tracing := false;
  (dt *. 1000.0, problems = [])

let calib_ns = ref []

let calibrate () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 200_000 do
    x := ((!x * 1103515245) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !x);
  calib_ns := ((now () -. t0) *. 1e9 /. 200_000.0) :: !calib_ns

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let nproc () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

(* A sweep with the domain pool pinned to [domains]; returns its wall ms. *)
let timed_sweep ~domains jobs =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  let total =
    List.fold_left (fun acc j -> acc +. fst (run_job ~traced:false j)) 0.0 jobs
  in
  Pasta.Config.unset "ACCEL_PROF_DOMAINS";
  total

let json_num v = if Float.is_finite v then Printf.sprintf "%.10g" v else "0"

let metric_json (name, unit, v) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit

(* Per-layer metrics of the traced jobs.  [_ms] values are means per
   traced job; [_pct] values are shares of the traced jobs' wall time. *)
let layers =
  [ "gpusim"; "dlfw"; "session"; "vendor"; "processor"; "ring_buffer";
    "devagg"; "tools"; "capture"; "replay"; "fleet"; "telemetry"; "bench" ]

let per_layer ~speedup ~overhead_pct =
  let layer l =
    Hashtbl.fold (fun (_, l') v a -> if l = l' then a +. v else a) class_layers 0.0
  in
  let wall = Hashtbl.fold (fun _ v a -> a +. v) class_wall 0.0 in
  let jobs = Float.max 1.0 (get "jobs") in
  let per_job_ms us = us /. 1000.0 /. jobs in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let dur n = Option.value ~default:0.0 (Hashtbl.find_opt durations n) in
  let records = get "devagg.records" in
  let replay_wall = Option.value ~default:0.0 (Hashtbl.find_opt class_wall "replay") in
  let in_replay l =
    Option.value ~default:0.0 (Hashtbl.find_opt class_layers ("replay", l))
  in
  let fleet_jobs = Float.max 1.0 (get "fleet.devices" /. 256.0) in
  let record_jobs = Float.max 1.0 (get "ptrace.record_jobs") in
  List.map (fun l -> (l ^ ".self_pct", "%", 100.0 *. ratio (layer l) wall)) layers
  @ [
      ("gpusim.simulate_self_ms", "ms", per_job_ms (layer "gpusim"));
      ("gpusim.kernels", "count", get "gpusim.kernels" /. jobs);
      ("dlfw.build_ms", "ms", per_job_ms (dur "dlfw.build"));
      ("session.attach_ms", "ms", per_job_ms (dur "session.attach"));
      ("session.detach_ms", "ms", per_job_ms (dur "session.detach"));
      ("vendor.handler_self_ms", "ms", per_job_ms (layer "vendor"));
      ("vendor.handler_calls", "count", get "vendor.handler_calls" /. jobs);
      ("processor.dispatch_self_ms", "ms", per_job_ms (layer "processor"));
      ("processor.events_seen", "count", get "processor.events_seen" /. jobs);
      ( "processor.dispatch_ratio", "ratio",
        ratio (get "processor.events_dispatched") (get "processor.events_seen") );
      ( "processor.objmap_memo_hit_ratio", "ratio",
        ratio (get "processor.memo_hits")
          (get "processor.memo_hits" +. get "processor.memo_misses") );
      ("ring_buffer.self_ms", "ms", per_job_ms (layer "ring_buffer"));
      ("ring_buffer.peak_records", "count", float_of_int !peak_records);
      ( "ring_buffer.drop_ratio", "ratio",
        ratio (get "ring_buffer.dropped") (get "processor.events_seen") );
      ("devagg.self_ms", "ms", per_job_ms (layer "devagg"));
      ("devagg.records", "count", records /. jobs);
      ("devagg.records_per_s", "1/s", ratio records (layer "devagg" /. 1e6));
      ("domain_pool.domains", "count", float_of_int (Pasta.Config.domains ()));
      ("domain_pool.speedup_vs_1", "ratio", speedup);
      ("tools.self_ms", "ms", per_job_ms (layer "tools"));
      ("tools.calls", "count", get "tools.calls" /. jobs);
      ("tools.report_ms", "ms", per_job_ms (dur "tools.report"));
      ("capture.self_ms", "ms", per_job_ms (layer "capture"));
      ( "ptrace.bytes_per_record", "B",
        ratio (get "ptrace.trace_bytes") (get "ptrace.trace_records") );
      ("ptrace.chunks", "count", get "ptrace.chunks" /. record_jobs);
      ("ptrace.decode_ms", "ms", get "ptrace.decode_us" /. 1000.0 /. record_jobs);
      ( "ptrace.decode_mb_per_s", "MB/s",
        ratio (get "ptrace.decode_bytes" /. 1e6) (get "ptrace.decode_us" /. 1e6) );
      ("replay.io_self_ms", "ms", per_job_ms (layer "replay"));
      ("replay.ops_per_s", "1/s", ratio (get "replay.ops") (replay_wall /. 1e6));
      ( "replay.io_processor_pct", "%",
        100.0 *. ratio (in_replay "replay" +. in_replay "processor") replay_wall );
      ("fleet.self_ms", "ms", per_job_ms (layer "fleet"));
      ("fleet.merge_nodes", "count", get "fleet.merge_nodes" /. fleet_jobs);
      ( "fleet.retries_per_device", "ratio",
        ratio (get "fleet.retries") (get "fleet.devices") );
      ("fleet.coverage", "ratio", get "fleet.coverage" /. fleet_jobs);
      ("fleet.dropped_at_merge", "count", get "fleet.dropped_at_merge" /. fleet_jobs);
      ("gc.minor_words_per_record", "words", ratio (get "gc.minor_words") records);
      ("gc.major_words_per_job", "words", get "gc.major_words" /. jobs);
      ("telemetry.overhead_pct", "%", overhead_pct);
    ]

let () =
  Pasta_tools.Tools.register_all ();
  (* Replay runs serial: with the default pool its chunk decode runs ahead
     by a timing-dependent amount, and peak RSS then varies by a third
     from run to run.  The pool is measured on fine_zoo and fleet_256. *)
  if workload = "trace_replay" then Pasta.Config.set "ACCEL_PROF_DOMAINS" "1";
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let jobs = jobs_of_workload () in
  (* Set-up: unmeasured warm-up sweeps over every job kind fill caches,
     grow the heap and start the domain pool, and the first one records
     each kind's digest.  Workloads with few or short job kinds sweep more
     often, so set-up is real work on every workload.  A last pass records
     one trace of each live job kind (trace_mb). *)
  let rounds =
    match workload with
    | "fine_zoo" -> 2 | "trace_replay" -> 4 | "fleet_256" -> 8 | _ -> 1
  in
  for _ = 1 to rounds do
    List.iter (fun j -> ignore (run_job ~traced:false j)) (sweep_order jobs)
  done;
  (match workload with
  | "fine_zoo" | "coarse_zoo" ->
      List.iter
        (fun j ->
          let path = Filename.concat work_dir "setup.ptrace" in
          setup_capture := Some path;
          ignore (run_job ~traced:false j);
          setup_capture := None;
          Sys.remove path)
        jobs
  | "fleet_256" ->
      let prefix = Filename.concat work_dir "fleet" in
      let cfg = fleet_cfg ~capture_prefix:prefix () in
      ignore (Pasta.Fleet.run cfg);
      for d = 0 to cfg.devices - 1 do
        let p = Pasta.Fleet.trace_path prefix d in
        if Sys.file_exists p then begin
          trace_sizes := float_of_int (Unix.stat p).Unix.st_size :: !trace_sizes;
          Sys.remove p
        end
      done
  | _ ->
      let st = Pasta.Replay.stat trace_path in
      bump counts "ptrace.trace_bytes" (float_of_int st.s_bytes);
      bump counts "ptrace.trace_records" (float_of_int st.s_records));
  let setup_s = now () -. t_process in
  (* Measurement: whole sweeps, each started only while it is expected to
     end within the time budget.  A traced run alternates untraced and
     traced sweeps, so both see the same machine drift. *)
  let traced = ref [] and by_kind = ref [] in
  let t_begin = now () in
  let last_sweep = ref 0.0 and sweeps = ref 0 in
  while !sweeps < 2 || now () -. t_begin +. !last_sweep <= seconds do
    let t_sweep = now () in
    let trace_this = traced_run && !sweeps mod 2 = 1 in
    List.iter
      (fun j ->
        calibrate ();
        let ms, ok = run_job ~traced:trace_this j in
        if ok then
          if trace_this then traced := ms :: !traced
          else by_kind := (j.kind, ms) :: !by_kind;
        (* The codec alone, outside any job: decode with a no-op callback. *)
        if trace_this && j.cls = "record" then begin
          tracing := true;
          let t0 = now () in
          ignore (Pasta.Ptrace.read_file trace_path ~f:(fun ~time_us:_ _ -> ()));
          count "ptrace.decode_us" ((now () -. t0) *. 1e6);
          count "ptrace.decode_bytes"
            (float_of_int (Unix.stat trace_path).Unix.st_size);
          tracing := false
        end)
      (sweep_order jobs);
    last_sweep := now () -. t_sweep;
    incr sweeps
  done;
  let speedup =
    match workload with
    | ("fine_zoo" | "fleet_256") when traced_run ->
        let n = Pasta.Config.domains () in
        let one = timed_sweep ~domains:1 jobs in
        let dflt = timed_sweep ~domains:n jobs in
        let one = one +. timed_sweep ~domains:1 jobs in
        one /. (dflt +. timed_sweep ~domains:n jobs)
    | _ -> 0.0
  in
  if Sys.file_exists trace_path then Sys.remove trace_path;
  let untraced = List.map snd !by_kind in
  let p50 = median untraced in
  let metrics =
    if traced_run then
      per_layer ~speedup
        ~overhead_pct:(100.0 *. ((median !traced /. p50) -. 1.0))
    else
      [
        ("setup_s", "s", setup_s);
        ("job_ms_p50", "ms", p50);
        ("job_ms_p90", "ms", percentile 0.9 untraced);
        ("peak_rss_mb", "MB", vm_hwm_mb ());
        ("trace_mb", "MB", median !trace_sizes /. 1e6);
      ]
  in
  if traced_run then write_spans ();
  Printf.printf
    "{\"machine\": {\"nproc\": %d, \"recommended_domains\": %d, \
     \"pool_domains\": %d, \"ocaml\": %S, \"calib_ns_p50\": %s}, \
     \"workload\": %S, \"seed\": %d, \"sweeps\": %d, \"job_samples\": %d, \
     \"kind_ms_p50\": {%s}}\n"
    (nproc ())
    (Domain.recommended_domain_count ())
    (Pasta.Config.domains ()) Sys.ocaml_version
    (json_num (median !calib_ns))
    workload seed !sweeps
    (List.length untraced)
    (String.concat ", "
       (List.map
          (fun j ->
            Printf.sprintf "%S: %s" j.kind
              (json_num
                 (median
                    (List.filter_map
                       (fun (k, ms) -> if k = j.kind then Some ms else None)
                       !by_kind))))
          jobs));
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map metric_json metrics));
  exit 0
