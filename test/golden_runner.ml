(* Golden-report snapshot harness.

   Runs the seeded quickstart workload (the BERT inference the README
   opens with) under each locked tool and compares the report text
   byte-for-byte against the snapshots in [test/golden/].  The simulator
   stack is deterministic end to end, so any diff is a real behaviour
   change — re-bless intentionally with [--update]:

     dune exec test/golden_runner.exe -- --update

   The overhead report is the one wall-clock-dependent output; its
   numeric and whitespace runs are collapsed before comparison so the
   snapshot locks the table's structure, labels and row set. *)

let update = ref false
let dir = ref (if Sys.file_exists "test/golden" then "test/golden" else "golden")

let () =
  let rec parse = function
    | [] -> ()
    | "--update" :: rest ->
        update := true;
        parse rest
    | "--dir" :: d :: rest ->
        dir := d;
        parse rest
    | arg :: _ ->
        prerr_endline ("golden_runner: unknown argument " ^ arg);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

(* Pin every knob the reports depend on, so a developer's environment
   cannot make the snapshots lie. *)
let () =
  List.iter Pasta.Config.unset
    [
      "ACCEL_PROF_SAMPLE_RATE";
      "ACCEL_PROF_OVERHEAD_BUDGET";
      "ACCEL_PROF_ENV_SAMPLE_RATE";
      "ACCEL_PROF_INJECT_FAULTS";
      "ACCEL_PROF_DOMAINS";
      "ACCEL_PROF_RANGE";
      "ACCEL_PROF_REGIONS";
    ];
  Pasta.Config.set "ACCEL_PROF_TELEMETRY" "basic";
  Pasta.Telemetry.refresh_level ()

(* Collapse each run of digits (dots/commas inside numbers included) to a
   single '#', and each run of spaces to a single space, so right-aligned
   columns of varying wall-clock magnitudes compare equal. *)
let scrub s =
  let n = String.length s in
  let buf = Buffer.create n in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if is_digit c then begin
      Buffer.add_char buf '#';
      let j = ref (!i + 1) in
      let stop = ref false in
      while (not !stop) && !j < n do
        if is_digit s.[!j] then incr j
        else if
          (s.[!j] = '.' || s.[!j] = ',')
          && !j + 1 < n
          && is_digit s.[!j + 1]
        then j := !j + 2
        else stop := true
      done;
      i := !j
    end
    else if c = ' ' then begin
      Buffer.add_char buf ' ';
      while !i < n && s.[!i] = ' ' do
        incr i
      done
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let quickstart device =
  let ctx = Dlfw.Ctx.create device in
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m;
  ctx

let run_tool tool =
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = ref None in
  let (), result =
    Pasta.Session.run ~tool device (fun () -> ctx := Some (quickstart device))
  in
  Option.iter Dlfw.Ctx.destroy !ctx;
  (Format.asprintf "%t" result.Pasta.Session.report, result)

let kernel_freq () =
  let t = Pasta_tools.Kernel_freq.create () in
  fst (run_tool (Pasta_tools.Kernel_freq.tool t))

let hotness () =
  let t = Pasta_tools.Hotness.create () in
  fst (run_tool (Pasta_tools.Hotness.tool_fine t))

(* The NVBit host-analysis path: every sampled record crosses the channel
   buffer and reaches the tool on the host, so the report and the health
   block's buffer accounting lock the device-to-tool record stream.  The
   health block names the domain-pool size, so the pool is pinned to one
   domain (the default follows the machine's core count). *)
let memory_charact_nvbit () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" "1";
  Fun.protect
    ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_DOMAINS")
    (fun () ->
      let t =
        Pasta_tools.Memory_charact.create
          ~variant:Pasta_tools.Memory_charact.Cpu_nvbit ()
      in
      let report, result = run_tool (Pasta_tools.Memory_charact.tool t) in
      report
      ^ Format.asprintf "%a" Pasta.Session.pp_health result.Pasta.Session.health)

let op_summary () =
  let t = Pasta_tools.Op_summary.create () in
  fst (run_tool (Pasta_tools.Op_summary.tool t))

(* The region tools need the instrumentation pass on; the knob is pinned
   back off by the Fun.protect so later snapshots stay uninstrumented. *)
let with_regions produce () =
  Pasta.Config.set "ACCEL_PROF_REGIONS" "fine";
  Fun.protect
    ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_REGIONS")
    produce

let region_latency =
  with_regions (fun () ->
      let t = Pasta_tools.Region_latency.create () in
      fst (run_tool (Pasta_tools.Region_latency.tool t)))

let region_roofline =
  with_regions (fun () ->
      let t = Pasta_tools.Region_roofline.create () in
      fst (run_tool (Pasta_tools.Region_roofline.tool t)))

(* The heterogeneous-session surfaces: one session hosting CUDA + OpenCL
   + TPU backends.  [cross_vendor] locks the merged per-backend report
   (each tool under its [=== backend <label> ===] heading);
   [mixed_timeline] locks the unified Chrome-trace JSON — track-group
   metadata first (one labelled group per backend), then the interleaved
   events with each backend's device id as pid.  Both run on the
   simulated clock, so the bytes are deterministic. *)
let mixed_specs () =
  [
    (Pasta.Backend.Sanitizer, Gpusim.Device.create ~id:0 Gpusim.Arch.a100);
    (Pasta.Backend.Opencl, Gpusim.Device.create ~id:1 Gpusim.Arch.mi300x);
    (Pasta.Backend.Xprof, Gpusim.Device.create ~id:2 Gpusim.Arch.tpu_v4);
  ]

let mixed_workloads specs =
  List.iter
    (fun (_, d) ->
      let ctx = Dlfw.Ctx.create d in
      let m = Dlfw.Bert.build ~batch:1 ~seq:32 ~layers:1 ~dim:64 ~heads:4 ctx in
      Dlfw.Model.inference_iter ctx m;
      Dlfw.Ctx.destroy ctx)
    specs

let cross_vendor () =
  let specs = mixed_specs () in
  let (), mr =
    Pasta.Session.run_multi
      ~tool:(fun _ _ ->
        Pasta_tools.Kernel_freq.tool (Pasta_tools.Kernel_freq.create ()))
      specs
      (fun () -> mixed_workloads specs)
  in
  Format.asprintf "%t" mr.Pasta.Session.mr_report

let mixed_timeline () =
  let specs = mixed_specs () in
  let tx = Pasta.Trace_export.create () in
  List.iter
    (fun (kind, d) ->
      Pasta.Trace_export.set_track_group tx ~pid:(Gpusim.Device.id d)
        (Printf.sprintf "%s (device %d)"
           (Pasta.Backend.kind_to_string kind)
           (Gpusim.Device.id d)))
    specs;
  let (), (_ : Pasta.Session.multi_result) =
    Pasta.Session.run_multi
      ~tool:(fun _ _ -> Pasta.Trace_export.tool tx)
      specs
      (fun () -> mixed_workloads specs)
  in
  Pasta.Trace_export.to_json tx

(* The --overhead-report surface: attribution table plus the governor
   line, exactly what bin/accelprof prints, scrubbed of clock noise.  A
   fixed-rate governor keeps the snapshot line's wording independent of
   wall-clock behaviour (an auto governor's adjustment/violation counts —
   and with them English plurals and the optional floor line — vary run
   to run, which no numeric scrub can hide). *)
let overhead_report () =
  Pasta.Telemetry.reset ();
  let t = Pasta_tools.Hotness.create () in
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = ref None in
  let (), result =
    Pasta.Session.run ~sample_rate:0.25
      ~tool:(Pasta_tools.Hotness.tool_fine t)
      device
      (fun () -> ctx := Some (quickstart device))
  in
  Option.iter Dlfw.Ctx.destroy !ctx;
  let attribution =
    Format.asprintf "%a" Pasta.Telemetry.pp_attribution
      (Pasta.Telemetry.attribution ())
  in
  let governor =
    match result.Pasta.Session.health.Pasta.Session.sampling with
    | Some sn -> Format.asprintf "%a@." Pasta.Sampler.pp_snapshot sn
    | None -> "sampling: (no governor)\n"
  in
  scrub (attribution ^ governor)

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let write_file path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

let failures = ref 0

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | x :: xs, y :: ys when String.equal x y -> go (n + 1) (xs, ys)
    | x :: _, y :: _ -> Some (n, x, y)
    | x :: _, [] -> Some (n, x, "<missing>")
    | [], y :: _ -> Some (n, "<missing>", y)
    | [], [] -> None
  in
  go 1 (la, lb)

let snapshot name produce =
  let path = Filename.concat !dir (name ^ ".txt") in
  let got = produce () in
  if !update then begin
    write_file path got;
    Printf.printf "golden: blessed %s (%d bytes)\n" path (String.length got)
  end
  else if not (Sys.file_exists path) then begin
    incr failures;
    Printf.printf "golden: MISSING %s — run with --update to bless it\n" path
  end
  else begin
    let want = read_file path in
    if String.equal want got then Printf.printf "golden: ok %s\n" path
    else begin
      incr failures;
      Printf.printf "golden: MISMATCH %s\n" path;
      match first_diff want got with
      | Some (line, w, g) ->
          Printf.printf "  first diff at line %d:\n  - %s\n  + %s\n" line w g
      | None -> ()
    end
  end

let () =
  snapshot "kernel_freq" kernel_freq;
  snapshot "hotness" hotness;
  snapshot "op_summary" op_summary;
  snapshot "memory_charact_nvbit" memory_charact_nvbit;
  snapshot "region_latency" region_latency;
  snapshot "region_roofline" region_roofline;
  snapshot "overhead_report" overhead_report;
  snapshot "cross_vendor" cross_vendor;
  snapshot "mixed_timeline" mixed_timeline;
  if !failures > 0 then begin
    Printf.printf
      "golden: %d snapshot%s out of date (dune exec test/golden_runner.exe \
       -- --update to re-bless)\n"
      !failures
      (if !failures = 1 then "" else "s");
    exit 1
  end
