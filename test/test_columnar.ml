(* The one fine-grained delivery contract: records reach the processor as
   packed batches, device-side aggregation shards them per domain and
   merges once per kernel, and a tool reads the batches either through
   its columns hook or through the per-record adapter.  Three checks pin
   it down:

   - the processor's merged per-kernel summary equals the reference
     reduction [Devagg.merge (Array.map (Devagg.aggregate view) batches)]
     at every domain count, with faults injected and sampling engaged;
   - a columns-hook tool prints the same report with its hook stripped,
     so the per-record adapter runs instead;
   - a trace captured from the batch layout replays to the exact live
     bytes. *)

let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let ( let* ) x f = QCheck.Gen.( >>= ) x f

let bert_inference ctx () =
  let m = Dlfw.Bert.build ~batch:1 ~seq:64 ~layers:2 ~dim:64 ~heads:4 ctx in
  Dlfw.Model.inference_iter ctx m

(* One live BERT run at the given domain count.  The override is cleared
   even if the run throws, so a failing case cannot poison the suite that
   runs after it. *)
let live_run ?rate ?capture ?fault_seed ~domains ~tool () =
  Pasta.Config.set "ACCEL_PROF_DOMAINS" (string_of_int domains);
  Fun.protect ~finally:(fun () -> Pasta.Config.unset "ACCEL_PROF_DOMAINS")
  @@ fun () ->
  let device = Gpusim.Device.create Gpusim.Arch.a100 in
  let ctx = Dlfw.Ctx.create device in
  let faults =
    Option.map (fun seed -> Gpusim.Faults.create ~seed ()) fault_seed
  in
  let (), result =
    Pasta.Session.run ~sample_cap:256 ?sample_rate:rate ?faults ?capture
      ~tool device (bert_inference ctx)
  in
  Dlfw.Ctx.destroy ctx;
  (Format.asprintf "%t" result.Pasta.Session.report, result)

let temp_trace () = Filename.temp_file "pasta_columnar" ".ptrace"

(* ------------------------------------------------------------------ *)
(* Parallel summary = the reference reduction                          *)
(* ------------------------------------------------------------------ *)

(* Re-derive every kernel's summary from a captured trace: collect the
   kernel's batches, and at its flush marker reduce them shard by shard
   with [Devagg.aggregate] against the object map as it stood then, and
   merge.  The object map is rebuilt by feeding the recorded events to a
   tool-less processor. *)
let reference_summaries path =
  let proc =
    Pasta.Processor.create ~range:(Pasta.Range.create ()) ~device:0 ()
  in
  let pending = ref [] and rate = ref 1.0 and out = ref [] in
  let (_ : Pasta.Ptrace.header * Pasta.Ptrace.read_stats) =
    Pasta.Ptrace.read_file path ~f:(fun ~time_us op ->
        match op with
        | Pasta.Processor.Sk_batch (k, b) -> pending := (k, b) :: !pending
        | Pasta.Processor.Sk_flush_parallel k ->
            let mine, others =
              List.partition
                (fun ((i : Pasta.Event.kernel_info), _) ->
                  i.Pasta.Event.grid_id = k.Pasta.Event.grid_id)
                (List.rev !pending)
            in
            pending := List.rev others;
            if mine <> [] then begin
              let view = Pasta.Objmap.view (Pasta.Processor.objmap proc) in
              let batches = Array.of_list (List.map snd mine) in
              out :=
                Pasta.Devagg.merge ~est_rate:!rate
                  (Array.map (Pasta.Devagg.aggregate view) batches)
                :: !out
            end
        | Pasta.Processor.Sk_rate { sr_rate; _ } -> rate := sr_rate
        | Pasta.Processor.Sk_event (Pasta.Event.Device_summary _) -> ()
        | Pasta.Processor.Sk_event p -> Pasta.Processor.submit proc ~time_us p
        | _ -> ())
  in
  List.rev !out

let summaries_run ~rate ~fault_seed ~domains =
  let got = ref [] in
  let tool =
    {
      (Pasta.Tool.default ~fine_grained:Pasta.Tool.Gpu_parallel "summaries")
      with
      Pasta.Tool.on_device_summary = (fun _ s -> got := s :: !got);
    }
  in
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let (_ : string * Pasta.Session.result) =
    live_run ~rate ~fault_seed ~capture:path ~domains ~tool ()
  in
  (List.rev !got, reference_summaries path)

(* For a random sub-1.0 sampling rate and fault seed, at 1, 2, 4 and 8
   domains, every summary the processor hands the tool is the reference
   reduction of that kernel's batches, and all four runs agree. *)
let prop_parallel_summary_is_reference =
  let gen =
    let* rate = QCheck.Gen.oneofl [ 0.75; 0.5; 0.25 ] in
    let* seed = QCheck.Gen.int_range 1 1_000_000 in
    QCheck.Gen.return (rate, seed)
  in
  QCheck.Test.make
    ~name:
      "parallel summary = Devagg.merge of per-batch aggregates at 1/2/4/8 \
       domains (faults + sampling)"
    ~count:3
    (QCheck.make gen ~print:(fun (rate, seed) ->
         Printf.sprintf "rate=%g fault_seed=%d" rate seed))
    (fun (rate, seed) ->
      let fault_seed = Int64.of_int seed in
      let runs =
        List.map
          (fun domains -> summaries_run ~rate ~fault_seed ~domains)
          [ 1; 2; 4; 8 ]
      in
      match runs with
      | [] -> false
      | (first, _) :: _ ->
          first <> []
          && List.for_all (fun (live, reference) -> live = reference && live = first) runs)

(* ------------------------------------------------------------------ *)
(* Columns hook vs the per-record adapter                              *)
(* ------------------------------------------------------------------ *)

(* Cpu_sanitizer memory characterization reads the address column in
   place; with the hook stripped the processor walks each batch and calls
   [on_access] per record.  Same report either way, at any domain count
   and under faults. *)
let test_columns_hook_equals_adapter () =
  let run ~hook ~domains ?fault_seed () =
    let mc = Pasta_tools.Memory_charact.create ~variant:Cpu_sanitizer () in
    let tool = Pasta_tools.Memory_charact.tool mc in
    let tool =
      if hook then tool
      else { tool with Pasta.Tool.on_access_columns = None; on_access_batch = None }
    in
    live_run ?fault_seed ~domains ~tool ()
  in
  List.iter
    (fun (domains, fault_seed) ->
      let hooked, rh = run ~hook:true ~domains ?fault_seed () in
      let adapted, ra = run ~hook:false ~domains ?fault_seed () in
      let label = Printf.sprintf "%d domains, faults %b" domains (fault_seed <> None) in
      check_bool ("report identical, " ^ label) true (String.equal hooked adapted);
      check_bool ("hook received batches, " ^ label) true
        (rh.Pasta.Session.health.Pasta.Session.batches_delivered > 0);
      check_bool ("adapter delivered no batches, " ^ label) true
        (ra.Pasta.Session.health.Pasta.Session.batches_delivered = 0))
    [ (1, None); (4, None); (2, Some 24285L) ]

(* ------------------------------------------------------------------ *)
(* Capture -> replay round-trip on the batch layout                    *)
(* ------------------------------------------------------------------ *)

let test_columnar_capture_replay () =
  let path = temp_trace () in
  let hot = Pasta_tools.Hotness.create () in
  let live, result =
    live_run ~rate:0.5 ~fault_seed:24285L ~domains:4 ~capture:path
      ~tool:(Pasta_tools.Hotness.tool_fine hot) ()
  in
  check_bool "capture recorded ops" true
    (result.Pasta.Session.health.Pasta.Session.events_recorded > 0);
  (* The batch layout itself went through the codec: the trace carries
     packed access_batch ops, not an unpacked per-record stream. *)
  let s = Pasta.Replay.stat path in
  check_bool "trace carries packed access_batch ops" true
    (List.mem_assoc "access_batch" s.Pasta.Replay.s_kinds);
  check_bool "trace carries no unpacked global_access ops" false
    (List.mem_assoc "global_access" s.Pasta.Replay.s_kinds);
  let hot = Pasta_tools.Hotness.create () in
  let o =
    Pasta.Replay.run ~mode:Pasta.Ptrace.Strict
      ~tool:(Pasta_tools.Hotness.tool_fine hot)
      path
  in
  let replayed = Format.asprintf "%t" o.Pasta.Replay.report in
  check_bool "live vs replay byte-identical" true (String.equal live replayed);
  Sys.remove path

let suite =
  [
    qtest prop_parallel_summary_is_reference;
    Alcotest.test_case "columns hook = per-record adapter" `Quick
      test_columns_hook_equals_adapter;
    Alcotest.test_case "columnar capture replays byte-identical" `Quick
      test_columnar_capture_replay;
  ]
