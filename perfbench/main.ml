(* perfbench: the tdflow repository benchmark, one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run alternates set-ups (their median is [setup_s]) with batches of
   one timed operation, for at least [--seconds] seconds in all, and
   checks every output.  The report ends with one JSON line
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].

   Layers are timed from here, around the public entry point of each
   library module (Text, Def/Lef, Protocol/Frame, Validate/Pipeline,
   Server.handle, Legality/Displacement/Hpwl).  The traced run also
   installs a [Tdf_telemetry.Aggregate] sink around every other
   operation, so the spans and counters the legalizer, the ECO engine and
   MCMF already emit are attributed too.  See README.md for the workloads
   and the metric definitions. *)

module Json = Tdf_telemetry.Json
module Agg = Tdf_telemetry.Aggregate
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Protocol = Tdf_io.Protocol
module Frame = Tdf_io.Frame
module Text = Tdf_io.Text
module Def = Tdf_def_lef.Def
module Lef = Tdf_def_lef.Lef
module Server = Tdf_server.Server
module Timer = Tdf_util.Timer
module Crc32 = Tdf_util.Crc32
module Prng = Tdf_util.Prng

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ---- layer timers -------------------------------------------------- *)

(* Every call into a layer goes through [layer], which adds its wall time
   and minor-heap words to the named accumulator.  The calls made by one
   operation are sequential, never nested, so their sum is the attributed
   part of the operation. *)

type acc = { mutable ms : float; mutable words : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32

let add_acc tbl name ms words =
  let a =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
      let a = { ms = 0.; words = 0. } in
      Hashtbl.replace tbl name a;
      a
  in
  a.ms <- a.ms +. ms;
  a.words <- a.words +. words

let layer name f =
  let w0 = Gc.minor_words () in
  let t0 = Timer.now_ns () in
  let r = f () in
  add_acc accs name
    (Timer.ns_to_ms (Timer.elapsed_ns t0))
    (Gc.minor_words () -. w0);
  r

let layers_total () = Hashtbl.fold (fun _ a s -> s +. a.ms) accs 0.

(* Sizes and work counts the benchmark itself observes (bytes on the wire,
   pipeline attempts), per operation like the timers. *)
let counts : (string, float ref) Hashtbl.t = Hashtbl.create 8

let add tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace tbl name (ref v)

let add_count = add counts

let time_ms f =
  let t0 = Timer.now_ns () in
  let r = f () in
  (r, Timer.ns_to_ms (Timer.elapsed_ns t0))

(* ---- failures ------------------------------------------------------ *)

(* Report a failed check; returns [ok] so callers can chain checks. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then Printf.printf "FAIL %s\n%!" msg;
      ok)
    fmt

(* ---- statistics ---------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it, as
   (value, percentile); the maximum when there are fewer than eleven
   samples. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n >= 11 then (s.(n - 11), 100. *. float (n - 10) /. float n)
  else (s.(n - 1), 100.)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float st.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.

(* ---- inputs --------------------------------------------------------- *)

(* Designs are seeded by case name inside lib/benchgen: the same case
   always yields the same design, whatever --seed says. *)
let generate suite case =
  layer "benchgen.generate" (fun () ->
      Tdf_benchgen.Gen.generate_by_name ~scale:1.0 suite case)

type fingerprint = {
  cells : int;
  macros : int;
  nets : int;
  bins : int;  (** flow-legalization bins at the default bin width *)
  bytes : int;  (** size of the design's native text form *)
  text_crc : string;  (** CRC-32 of that text *)
}

let fingerprint design text =
  let cfg = Tdf_legalizer.Config.default in
  let bw =
    Tdf_legalizer.Flow3d.flow_bin_width design
      ~factor:cfg.Tdf_legalizer.Config.bin_width_factor
  in
  {
    cells = Design.n_cells design;
    macros = Array.length design.Design.macros;
    nets = Array.length design.Design.nets;
    bins = Tdf_grid.Grid.n_bins (Tdf_grid.Grid.build design ~bin_width:bw);
    bytes = String.length text;
    text_crc = Crc32.to_hex (Crc32.string text);
  }

let fingerprint_json f =
  Json.Obj
    [
      ("cells", Json.Int f.cells);
      ("macros", Json.Int f.macros);
      ("nets", Json.Int f.nets);
      ("bins", Json.Int f.bins);
      ("bytes", Json.Int f.bytes);
      ("design_crc", Json.String f.text_crc);
    ]

(* ---- run shape ------------------------------------------------------ *)

type quality = { avg_disp : float; max_disp : float; hpwl_pct : float }

let no_quality = { avg_disp = nan; max_disp = nan; hpwl_pct = nan }

let quality_of design p =
  let s = Tdf_metrics.Displacement.summary design p in
  {
    avg_disp = s.Tdf_metrics.Displacement.avg_norm;
    max_disp = s.Tdf_metrics.Displacement.max_norm;
    hpwl_pct = Tdf_metrics.Hpwl.increase_pct design p;
  }

(* What one timed operation reports back to the driver loop. *)
type outcome = {
  ok : bool;  (** every check of this operation passed *)
  crc : string option;  (** CRC of the output, for the repeat check *)
}

(* A workload: [setup] builds the inputs and returns the state the timed
   operations share; [op i] runs the i-th operation (its own timing is the
   caller's) and [after i] runs its untimed checks. *)
type 'st workload = {
  name : string;
  expect : fingerprint;
  setups : int;  (** rounds of set-up + operations; [setup_s] is the median *)
  min_ops : int;  (** operations run even when --seconds has passed *)
  setup : Prng.t -> 'st * fingerprint * string option;
      (** state, input fingerprint, CRC of the set-up result *)
  op : 'st -> int -> unit;
  after : 'st -> int -> outcome;
  quality : 'st -> quality;
  gauges : 'st -> (string * float) list;
      (** cumulative workload-specific figures, read around each traced
          operation; the per-layer report gives their increase per op *)
  teardown : 'st -> unit;
}

(* ---- workload: scratch legalization (the CLI `run` path) ------------ *)

type scratch = {
  s_text : string;  (** the design file the CLI would read *)
  mutable s_out :
    (Design.t * Placement.t * Tdf_metrics.Legality.report * bool * string) option;
      (** the last operation's design, placement, audit, pipeline
          legality and placement text *)
}

let scratch_setup suite case _rng =
  let design = generate suite case in
  let text =
    layer "io.write_design" (fun () -> Text.design_to_string design)
  in
  ({ s_text = text; s_out = None }, fingerprint design text, None)

let scratch_op st _ =
  let design =
    layer "io.read_design" (fun () -> Text.read_design_exn st.s_text)
  in
  let issues =
    layer "robust.validate" (fun () -> Tdf_robust.Validate.design design)
  in
  if Tdf_robust.Validate.fatal issues <> [] then failwith "preflight: fatal issues";
  let rep =
    match layer "robust.pipeline" (fun () -> Tdf_robust.Pipeline.run design) with
    | Ok r -> r
    | Error e -> failwith (Tdf_robust.Error.to_string e)
  in
  add_count "robust.attempts" (float rep.Tdf_robust.Pipeline.attempts);
  let d = rep.Tdf_robust.Pipeline.design
  and p = rep.Tdf_robust.Pipeline.placement in
  let legality =
    layer "metrics.legality" (fun () -> Tdf_metrics.Legality.check d p)
  in
  ignore
    (layer "metrics.displacement" (fun () ->
         Tdf_metrics.Displacement.summary d p));
  ignore (layer "metrics.hpwl" (fun () -> Tdf_metrics.Hpwl.increase_pct d p));
  let out =
    layer "io.write_placement" (fun () -> Text.placement_to_string d p)
  in
  st.s_out <- Some (d, p, legality, rep.Tdf_robust.Pipeline.legal, out)

let scratch_after st i =
  match st.s_out with
  | None -> { ok = check false "scratch op %d produced nothing" i; crc = None }
  | Some (_, _, legality, legal, out) ->
    let ok =
      check (legality.Tdf_metrics.Legality.n_violations = 0)
        "scratch op %d: placement not legal (%s)" i
        (Tdf_metrics.Legality.brief legality)
      && check legal "scratch op %d: pipeline says illegal" i
    in
    { ok; crc = Some (Crc32.to_hex (Crc32.string out)) }

let scratch_quality st =
  match st.s_out with
  | Some (d, p, _, _, _) -> quality_of d p
  | None -> no_quality

(* ---- workload: warm-daemon ECO stream ------------------------------- *)

(* Where the in-process daemon binds its socket and keeps its journal;
   removed when the process exits. *)
let work_root = ".perfbench-work"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let work_dir =
  lazy
    (let d = Filename.concat work_root (string_of_int (Unix.getpid ())) in
     if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
     Unix.mkdir d 0o755;
     at_exit (fun () ->
         rm_rf d;
         (* Another run may still be using the root. *)
         try Unix.rmdir work_root with Unix.Unix_error _ -> ());
     d)

let server_seq = ref 0

type eco = {
  e_design : Design.t;
  e_server : Server.t;
  e_rng : Prng.t;
  e_moves : int;
  mutable e_prev : Placement.t;
  mutable e_reply : Protocol.response option;
  mutable e_quality : quality;  (** of the state after set-up *)
}

let session = "bench"

(* One request through the whole wire path a socket client would take:
   encode, frame, decode on the server side, execute, and back. *)
let round_trip ~kind server req =
  let wire =
    layer "protocol.encode" (fun () -> Protocol.request_to_string req)
  in
  let payload =
    layer "frame.codec" (fun () ->
        let dec = Frame.decoder () in
        Frame.feed dec (Frame.encode wire);
        match Frame.next dec with
        | Ok (Some p) -> p
        | _ -> failwith "frame: request lost")
  in
  let req' =
    match
      layer "protocol.decode" (fun () -> Protocol.request_of_string payload)
    with
    | Ok r -> r
    | Error e -> failwith ("request decode: " ^ e.Protocol.detail)
  in
  let resp =
    layer ("server.handle." ^ kind) (fun () -> Server.handle server req')
  in
  let reply =
    layer "protocol.encode" (fun () -> Protocol.response_to_string resp)
  in
  add_count "protocol.reply_bytes" (float (String.length reply));
  let back =
    layer "frame.codec" (fun () ->
        let dec = Frame.decoder () in
        Frame.feed dec (Frame.encode reply);
        match Frame.next dec with
        | Ok (Some p) -> p
        | _ -> failwith "frame: reply lost")
  in
  match
    layer "protocol.decode" (fun () -> Protocol.response_of_string back)
  with
  | Ok r -> r
  | Error e -> failwith ("response decode: " ^ e)

(* A move-only delta of [k] distinct cells, each jittered inside a
   +-40 DBU window around its current position. *)
let eco_delta rng design (prev : Placement.t) k =
  let n = Design.n_cells design in
  let outline = (Design.die design 0).Tdf_netlist.Die.outline in
  let window = 40 in
  let jitter extent p =
    max 0 (min (extent - 1) (p - window + Prng.int rng ((2 * window) + 1)))
  in
  let seen = Hashtbl.create k in
  let rec pick acc =
    if Hashtbl.length seen = k then List.rev acc
    else
      let c = Prng.int rng n in
      if Hashtbl.mem seen c then pick acc
      else begin
        Hashtbl.replace seen c ();
        pick
          (Tdf_io.Delta.Move
             {
               cell = c;
               x = jitter outline.Tdf_geometry.Rect.w prev.Placement.x.(c);
               y = jitter outline.Tdf_geometry.Rect.h prev.Placement.y.(c);
               die = prev.Placement.die.(c);
             }
          :: acc)
      end
  in
  pick []

let eco_request st rng =
  Protocol.Eco
    {
      session;
      delta =
        Protocol.Text
          (Tdf_io.Delta.to_string
             (eco_delta rng st.e_design st.e_prev st.e_moves));
      radius = None;
      max_widenings = None;
      budget_ms = None;
      jobs = None;
      tiles = None;
      want_placement = true;
    }

(* Fetch the session's placement with a follow-up request and hold the
   ECO reply's placement text against it: both must be the same bytes,
   re-parse, and pass the independent legality audit. *)
let eco_verify st ~what text =
  let fetched =
    round_trip ~kind:"get_placement" st.e_server
      (Protocol.Get_placement { session })
  in
  let same =
    match fetched with
    | Ok (Protocol.Placement_text { placement; _ }) -> placement = text
    | _ -> false
  in
  match Text.read_placement st.e_design text with
  | Error e -> (check false "%s: placement does not re-parse: %s" what e, None)
  | Ok p ->
    let rep = Tdf_metrics.Legality.check st.e_design p in
    let ok =
      check same "%s: reply placement differs from get-placement" what
      && check (rep.Tdf_metrics.Legality.n_violations = 0)
           "%s: placement not legal (%s)" what
           (Tdf_metrics.Legality.brief rep)
    in
    (ok, Some p)

let eco_setup suite case ~moves rng =
  let design = generate suite case in
  let text =
    layer "io.write_design" (fun () -> Text.design_to_string design)
  in
  let fp = fingerprint design text in
  incr server_seq;
  let dir = Filename.concat (Lazy.force work_dir) (string_of_int !server_seq) in
  Unix.mkdir dir 0o755;
  let cfg =
    {
      (Server.default_cfg ~socket_path:(Filename.concat dir "s.sock")) with
      Server.journal =
        Some (Tdf_io.Journal.default_cfg ~dir:(Filename.concat dir "journal"));
    }
  in
  let server = Server.create cfg in
  let expect_ok what = function
    | Ok r -> r
    | Error e ->
      failwith
        (Printf.sprintf "%s: %s: %s" what e.Protocol.code e.Protocol.detail)
  in
  ignore
    (expect_ok "load-design"
       (round_trip ~kind:"load_design" server
          (Protocol.Load_design
             {
               session;
               design = Protocol.Text text;
               placement = None;
               tiles = None;
             })));
  ignore
    (expect_ok "legalize"
       (round_trip ~kind:"legalize" server
          (Protocol.Legalize
             {
               session;
               budget_ms = None;
               jobs = None;
               tiles = None;
               want_placement = false;
             })));
  let base =
    match
      expect_ok "get-placement"
        (round_trip ~kind:"get_placement" server
           (Protocol.Get_placement { session }))
    with
    | Protocol.Placement_text { placement; _ } ->
      Text.read_placement_exn design placement
    | _ -> failwith "get-placement: unexpected reply"
  in
  let st =
    {
      e_design = design;
      e_server = server;
      e_rng = rng;
      e_moves = moves;
      e_prev = base;
      e_reply = None;
      e_quality = no_quality;
    }
  in
  (* The warm-up ECO builds the session's grid.  Its delta does not
     depend on --seed, so every set-up does the same work. *)
  let warm_rng = Prng.of_string "perfbench-warm-up" in
  let warm =
    match
      expect_ok "warm-up eco"
        (round_trip ~kind:"eco" server (eco_request st warm_rng))
    with
    | Protocol.Eco_applied { placement = Some p; legal = true; _ } -> p
    | _ -> failwith "warm-up eco: no legal placement"
  in
  let ok, p = eco_verify st ~what:"warm-up eco" warm in
  if not ok then failwith "warm-up eco failed its checks";
  Option.iter (fun p -> st.e_prev <- p) p;
  st.e_quality <- quality_of design st.e_prev;
  (st, fp, Some (Crc32.to_hex (Crc32.string warm)))

let eco_op st _ =
  let req = eco_request st st.e_rng in
  st.e_reply <- Some (round_trip ~kind:"eco" st.e_server req)

let eco_after st i =
  let what = Printf.sprintf "eco request %d" i in
  match st.e_reply with
  | Some
      (Ok (Protocol.Eco_applied { legal; placement = Some text; fallbacks; _ }))
    ->
    let ok0 =
      check legal "%s: server reports an illegal placement" what
      && check (fallbacks = 0) "%s: fell back to a full rerun" what
    in
    let ok1, p = eco_verify st ~what text in
    Option.iter (fun p -> st.e_prev <- p) p;
    { ok = ok0 && ok1; crc = None }
  | Some (Error e) ->
    {
      ok = check false "%s: %s: %s" what e.Protocol.code e.Protocol.detail;
      crc = None;
    }
  | _ -> { ok = check false "%s: unexpected reply" what; crc = None }

(* Bytes the daemon has appended to its journal so far. *)
let eco_gauges st =
  let bytes =
    Option.bind
      (Json.member "journal" (Server.stats_json st.e_server))
      (Json.member "appended_bytes")
  in
  [
    ( "journal.bytes",
      float (Option.value (Option.bind bytes Json.to_int) ~default:0) );
  ]

let eco_quality st = st.e_quality

(* ---- workload: DEF/LEF signoff -------------------------------------- *)

type signoff = {
  g_lef : string;
  g_defs : string list;
  mutable g_out :
    (Design.t * Placement.t * Tdf_metrics.Legality.report * string list)
    option;
}

let signoff_setup suite case _rng =
  let design = generate suite case in
  let p =
    layer "tetris.legalize" (fun () -> Tdf_baselines.Tetris.legalize design)
  in
  let lef, defs =
    layer "def_lef.of_design" (fun () -> Def.of_design ~placement:p design)
  in
  let lef_s, def_s =
    layer "def_lef.write" (fun () ->
        (Lef.to_string lef, List.map Def.to_string defs))
  in
  let text = Text.design_to_string design in
  let all = String.concat "" (lef_s :: def_s) in
  ( { g_lef = lef_s; g_defs = def_s; g_out = None },
    fingerprint design text,
    Some (Crc32.to_hex (Crc32.string all)) )

let signoff_op st _ =
  add_count "def_lef.bytes"
    (float
       (List.fold_left
          (fun n s -> n + String.length s)
          (String.length st.g_lef) st.g_defs));
  let lef = layer "def_lef.read" (fun () -> Lef.read_exn st.g_lef) in
  let defs = layer "def_lef.read" (fun () -> List.map Def.read_exn st.g_defs) in
  let design, p =
    match layer "def_lef.to_design" (fun () -> Def.to_design ~lef defs) with
    | Ok r -> r
    | Error e -> failwith ("to_design: " ^ e)
  in
  let issues =
    layer "robust.validate" (fun () -> Tdf_robust.Validate.design design)
  in
  if Tdf_robust.Validate.fatal issues <> [] then failwith "preflight: fatal issues";
  let legality =
    layer "metrics.legality" (fun () -> Tdf_metrics.Legality.check design p)
  in
  ignore
    (layer "metrics.displacement" (fun () ->
         Tdf_metrics.Displacement.summary design p));
  ignore
    (layer "metrics.hpwl" (fun () -> Tdf_metrics.Hpwl.increase_pct design p));
  let lef', defs' =
    layer "def_lef.of_design" (fun () -> Def.of_design ~placement:p design)
  in
  let out =
    layer "def_lef.write" (fun () ->
        Lef.to_string lef' :: List.map Def.to_string defs')
  in
  st.g_out <- Some (design, p, legality, out)

let signoff_after st i =
  match st.g_out with
  | None -> { ok = check false "signoff op %d produced nothing" i; crc = None }
  | Some (_, _, legality, out) ->
    let ok =
      check (legality.Tdf_metrics.Legality.n_violations = 0)
        "signoff op %d: placement not legal (%s)" i
        (Tdf_metrics.Legality.brief legality)
      && check (out = st.g_lef :: st.g_defs)
           "signoff op %d: export . import . export is not byte-identical" i
    in
    { ok; crc = Some (Crc32.to_hex (Crc32.string (String.concat "" out))) }

let signoff_quality st =
  match st.g_out with
  | Some (d, p, _, _) -> quality_of d p
  | None -> no_quality

(* ---- workload table -------------------------------------------------- *)

type packed = W : 'st workload -> packed

let no_teardown _ = ()

let no_gauges _ = []

(* Expected inputs: a change to lib/benchgen that alters a workload fails
   the run as "inputs changed" instead of reading as a speed-up. *)
let workloads =
  [
    W
      {
        name = "scratch-iccad2023-case2";
        expect =
          {
            cells = 13901;
            macros = 6;
            nets = 19547;
            bins = 2194;
            bytes = 1133747;
            text_crc = "7e169088";
          };
        setups = 5;
        min_ops = 2;
        setup = scratch_setup Tdf_benchgen.Spec.Iccad2023 "case2";
        op = scratch_op;
        after = scratch_after;
        quality = scratch_quality;
        gauges = no_gauges;
        teardown = no_teardown;
      };
    W
      {
        name = "eco-serve-iccad2022-case3";
        expect =
          {
            cells = 44764;
            macros = 0;
            nets = 44360;
            bins = 6612;
            bytes = 3268713;
            text_crc = "c5ff6a97";
          };
        setups = 2;
        min_ops = 8;
        (* 22 moves: 0.05% of the cells. *)
        setup = eco_setup Tdf_benchgen.Spec.Iccad2022 "case3" ~moves:22;
        op = eco_op;
        after = eco_after;
        quality = eco_quality;
        gauges = eco_gauges;
        teardown = (fun st -> Server.close st.e_server);
      };
    W
      {
        name = "signoff-iccad2023-case3";
        expect =
          {
            cells = 124231;
            macros = 34;
            nets = 164429;
            bins = 19224;
            bytes = 10947181;
            text_crc = "3180560e";
          };
        setups = 2;
        min_ops = 2;
        setup = signoff_setup Tdf_benchgen.Spec.Iccad2023 "case3";
        op = signoff_op;
        after = signoff_after;
        quality = signoff_quality;
        gauges = no_gauges;
        teardown = no_teardown;
      };
  ]

(* ---- tracing --------------------------------------------------------- *)

(* Self time per span name: a span's duration minus its direct children's.
   Spans arrive when they close, children first, each tagged with its
   depth, so one running sum per depth suffices (single domain: the
   program runs with jobs 1). *)
let self_ns : (string, int64 ref) Hashtbl.t = Hashtbl.create 16

let child_ns = Array.make 256 0L

let self_sink = function
  | Tdf_telemetry.Span { name; depth; dur_ns; _ } ->
    let d = max 0 (min depth 254) in
    let self = Int64.sub dur_ns child_ns.(d + 1) in
    child_ns.(d + 1) <- 0L;
    child_ns.(d) <- Int64.add child_ns.(d) dur_ns;
    (match Hashtbl.find_opt self_ns name with
    | Some r -> r := Int64.add !r self
    | None -> Hashtbl.replace self_ns name (ref self))
  | _ -> ()

(* ---- driver ---------------------------------------------------------- *)

let knobs = [ "TDFLOW_JOBS"; "TDFLOW_TILES"; "TDFLOW_SOLVER"; "TDFLOW_FRONTIER" ]

let effective_knobs () =
  Json.Obj
    [
      ("jobs", Json.Int (Tdf_par.jobs ()));
      ("tiles", Json.Int (Tdf_legalizer.Tile.tiles ()));
      ( "solver",
        Json.String
          (Tdf_flow.Mcmf.variant_name (Tdf_flow.Mcmf.default_variant ())) );
      ( "frontier",
        Json.String
          (Tdf_legalizer.Config.frontier_name
             Tdf_legalizer.Config.default.Tdf_legalizer.Config.frontier) );
      ("cpus", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]

let unit_of k =
  let ends suffix = String.ends_with ~suffix k in
  if ends "_ms" then "ms"
  else if ends "_bytes" || ends ".bytes" then "bytes"
  else if ends "_mwords" then "Mwords"
  else if ends "_ratio" || ends "_frac" || ends "_per_pop" || ends "_per_aug"
          || k = "trace_overhead" then "ratio"
  else "count"

let metric v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]

(* Layer totals over the traced operations of a run. *)
type traced = {
  t_accs : (string, acc) Hashtbl.t;  (** layer calls *)
  t_counts : (string, float ref) Hashtbl.t;  (** [add_count]s and gauges *)
  mutable t_unattributed : float;
  mutable t_gc_major : int;
  mutable t_lat : float list;  (** traced operation latencies *)
  mutable t_plain : float list;  (** untraced latencies of the traced run *)
}

(* The per-layer report: every metric of BENCHMARK.json's [per_layer], per
   traced operation (set-up-only layers per set-up); 0 for layers the
   workload never reaches. *)
let per_layer_metrics tr agg ~per ~setup_layers ~setups (fp : fingerprint) =
  let per = float per and setups = float setups in
  let sum_ms tbl k = match Hashtbl.find_opt tbl k with Some a -> a.ms | None -> 0. in
  let op_ms k = sum_ms tr.t_accs k /. per in
  let op_count k =
    match Hashtbl.find_opt tr.t_counts k with Some r -> !r /. per | None -> 0.
  in
  let setup_ms k = sum_ms setup_layers k /. setups in
  let span k = Agg.span_total_ms agg k /. per in
  let self k =
    match Hashtbl.find_opt self_ns k with
    | Some r -> Timer.ns_to_ms !r /. per
    | None -> 0.
  in
  let ctr k = float (Agg.counter_total agg k) /. per in
  let ratio a b = if b = 0. then 0. else a /. b in
  let group k =
    match String.index_opt k '.' with
    | None -> k
    | Some j -> (
      match String.sub k 0 j with
      | "protocol" | "frame" -> "io"
      | "tetris" -> "baselines"
      | g -> g)
  in
  (* Minor words per traced operation; for the set-up-only layers
     (generator, Tetris), per set-up. *)
  let alloc g =
    let sum tbl =
      Hashtbl.fold (fun k a s -> if group k = g then s +. a.words else s) tbl 0.
    in
    let words =
      if g = "benchgen" || g = "baselines" then sum setup_layers /. setups
      else sum tr.t_accs /. per
    in
    words /. 1e6
  in
  let median_of l = median (Array.of_list l) in
  let handle = op_ms "server.handle.eco" in
  let hit = ctr "serve.cache.hit" and miss = ctr "serve.cache.miss" in
  let reuse = ctr "eco.grid_reuses" and builds = ctr "eco.grid_builds" in
  let pops = ctr "flow3d.augment.pops" and augs = ctr "flow3d.augmentations" in
  let selects = ctr "flow3d.select.calls" in
  [
    ("flow3d.augment_ms", span "flow3d.augment");
    ("flow3d.augment.pops", pops);
    ("flow3d.select.calls", selects);
    ("flow3d.select_per_pop", ratio selects pops);
    ("flow3d.augmentations", augs);
    ("flow3d.pops_per_aug", ratio pops augs);
    ("flow3d.relief_ms", span "flow3d.relief");
    ("flow3d.reliefs", ctr "flow3d.reliefs");
    ("flow3d.post_opt_ms", span "flow3d.post_opt");
    ("flow3d.mover_ms", span "flow3d.mover");
    ("flow3d.grid_build_ms", span "flow3d.grid_build");
    ("flow3d.grid_reset_ms", span "flow3d.grid_reset");
    ("flow3d.place_row_ms", span "flow3d.place_row");
    ("eco.run_ms", span "eco.run");
    ("eco.self_ms", self "eco.run");
    ("eco.dirty_bins", ctr "eco.dirty_bins");
    ("eco.dirty_frac", ratio (ctr "eco.dirty_bins") (float fp.bins));
    ("eco.widenings", ctr "eco.widenings");
    ("eco.fallbacks", ctr "eco.fallbacks");
    ("eco.grid_reuse_ratio", ratio reuse (reuse +. builds));
    ("mcmf.min_cost_flow_ms", span "mcmf.min_cost_flow");
    ("mcmf.csr_freeze_ms", span "mcmf.csr_freeze");
    ("mcmf.augmentations", ctr "mcmf.augmentations");
    ("mcmf.arc_scans", ctr "mcmf.arc_scans");
    ("server.handle_ms", handle);
    ("server.self_ms", if handle = 0. then 0. else handle -. span "eco.run");
    ("serve.cache_hit_ratio", ratio hit (hit +. miss));
    ("journal.appends", ctr "journal.appends");
    ("journal.bytes", op_count "journal.bytes");
    ("protocol.decode_ms", op_ms "protocol.decode");
    ("protocol.encode_ms", op_ms "protocol.encode");
    ("frame.codec_ms", op_ms "frame.codec");
    ("protocol.reply_bytes", op_count "protocol.reply_bytes");
    ("io.read_design_ms", op_ms "io.read_design");
    ("io.write_placement_ms", op_ms "io.write_placement");
    ("io.design_bytes", float fp.bytes);
    ("def_lef.read_ms", op_ms "def_lef.read");
    ("def_lef.to_design_ms", op_ms "def_lef.to_design");
    ("def_lef.of_design_ms", op_ms "def_lef.of_design");
    ("def_lef.write_ms", op_ms "def_lef.write");
    ("def_lef.bytes", op_count "def_lef.bytes");
    ("robust.validate_ms", op_ms "robust.validate");
    ("robust.pipeline_ms", op_ms "robust.pipeline");
    ("robust.attempts", op_count "robust.attempts");
    ("robust.fallbacks", ctr "robust.fallbacks");
    ("metrics.legality_ms", op_ms "metrics.legality");
    ("metrics.displacement_ms", op_ms "metrics.displacement");
    ("metrics.hpwl_ms", op_ms "metrics.hpwl");
    ("benchgen.generate_ms", setup_ms "benchgen.generate");
    ("tetris.legalize_ms", setup_ms "tetris.legalize");
  ]
  @ List.map
      (fun g -> (g ^ ".alloc_mwords", alloc g))
      [ "io"; "def_lef"; "robust"; "server"; "metrics"; "benchgen"; "baselines" ]
  @ [
      ("gc.major_collections", float tr.t_gc_major /. per);
      ("unattributed_ms", tr.t_unattributed /. per);
      ("trace_overhead", ratio (median_of tr.t_lat) (median_of tr.t_plain));
    ]

let run (W w) ~seed ~seconds ~trace =
  let attempted = ref 0 and failed = ref 0 in
  let attempt f =
    incr attempted;
    let ok = try f () with e -> check false "%s" (Printexc.to_string e) in
    if not ok then incr failed
  in
  let rng = Prng.create seed in
  (* In the traced run, operations 1, 3, 5, ... (half the minimum count)
     run with the sinks installed and the others without, so the traced
     figures cover the same operations on every run and [trace_overhead]
     compares neighbours. *)
  let n_traced = if trace then max 1 (w.min_ops / 2) else 0 in
  let min_ops = max w.min_ops (2 * n_traced) in
  let agg = Agg.create () in
  let agg_sink = Agg.sink agg in
  let tr =
    {
      t_accs = Hashtbl.create 32;
      t_counts = Hashtbl.create 8;
      t_unattributed = 0.;
      t_gc_major = 0;
      t_lat = [];
      t_plain = [];
    }
  in
  let setup_layers = Hashtbl.create 8 in
  let setup_s = ref [] and setup_crc = ref None and fp = ref None in
  let lat = ref [] and crcs = ref [] and q = ref no_quality in
  let busy_ms = ref 0. and n_ops = ref 0 in
  let one_op st =
    let idx = !n_ops in
    incr n_ops;
    let traced = trace && idx mod 2 = 1 && idx < 2 * n_traced in
    Hashtbl.reset accs;
    Hashtbl.reset counts;
    let gc0 = (Gc.quick_stat ()).Gc.major_collections in
    let gauges0 = if traced then w.gauges st else [] in
    if traced then begin
      Array.fill child_ns 0 (Array.length child_ns) 0L;
      Tdf_telemetry.install agg_sink;
      Tdf_telemetry.install self_sink
    end;
    let (), busy =
      time_ms @@ fun () ->
      attempt @@ fun () ->
      let (), ms =
        Fun.protect
          ~finally:(fun () ->
            if traced then begin
              Tdf_telemetry.remove agg_sink;
              Tdf_telemetry.remove self_sink
            end)
          (fun () -> time_ms (fun () -> w.op st idx))
      in
      lat := ms :: !lat;
      if traced then begin
        tr.t_lat <- ms :: tr.t_lat;
        tr.t_gc_major <-
          tr.t_gc_major + ((Gc.quick_stat ()).Gc.major_collections - gc0);
        tr.t_unattributed <- tr.t_unattributed +. (ms -. layers_total ());
        Hashtbl.iter (fun k a -> add_acc tr.t_accs k a.ms a.words) accs;
        Hashtbl.iter (fun k v -> add tr.t_counts k !v) counts;
        List.iter2
          (fun (k, v0) (_, v1) -> add tr.t_counts k (v1 -. v0))
          gauges0 (w.gauges st)
      end
      else if trace then tr.t_plain <- ms :: tr.t_plain;
      let o = w.after st idx in
      Option.iter (fun c -> crcs := c :: !crcs) o.crc;
      o.ok
    in
    busy_ms := !busy_ms +. busy
  in
  (* Set-ups and operations alternate: round k sets up afresh, then runs
     operations until k/setups of the measuring time and of the minimum
     count are reached, so the operations sample the whole run rather than
     its end. *)
  for round = 1 to w.setups do
    Hashtbl.reset accs;
    let state = ref None in
    attempt (fun () ->
        let (st, f, crc), ms = time_ms (fun () -> w.setup rng) in
        Printf.printf "setup %d: %.3f s\n%!" round (ms /. 1000.);
        setup_s := (ms /. 1000.) :: !setup_s;
        state := Some st;
        fp := Some f;
        let same_crc = match !setup_crc with None -> true | Some c -> crc = c in
        setup_crc := Some crc;
        check (f = w.expect)
          "inputs changed: %s is %d cells, %d macros, %d nets, %d bins, \
           %d bytes, crc %s"
          w.name f.cells f.macros f.nets f.bins f.bytes f.text_crc
        && check same_crc "set-up %d differs from set-up 1" round);
    Hashtbl.iter (fun k a -> add_acc setup_layers k a.ms a.words) accs;
    Option.iter
      (fun st ->
        let goal_ms = float seconds *. 1000. *. float round /. float w.setups in
        let goal_ops = ((min_ops * round) + w.setups - 1) / w.setups in
        let ran = !n_ops in
        while !n_ops < goal_ops || !busy_ms < goal_ms do
          one_op st
        done;
        if !n_ops > ran then q := w.quality st;
        w.teardown st)
      !state;
    (* Free this round before the next one sets up, so every round starts
       from the same heap and the peak does not depend on GC timing. *)
    state := None;
    if round < w.setups then Gc.compact ()
  done;
  let out_crc = match !crcs with c :: _ -> c | [] -> "" in
  attempt (fun () ->
      check (List.for_all (( = ) out_crc) !crcs)
        "output CRC differs between repeats");
  let lat_a = Array.of_list !lat in
  let n = Array.length lat_a in
  let tail_ms, tail_pct = if n > 0 then tail lat_a else (nan, nan) in
  let info =
    Json.Obj
      [
        ("workload", Json.String w.name);
        ("seed", Json.Int seed);
        ("inputs", match !fp with Some f -> fingerprint_json f | None -> Json.Null);
        ("knobs", effective_knobs ());
        ("setup_s", Json.List (List.rev_map (fun v -> Json.Float v) !setup_s));
        ("ops", Json.Int n);
        ("op_ms", Json.List (List.rev_map (fun v -> Json.Float v) !lat));
        ("tail_ms", Json.Float tail_ms);
        ("tail_percentile", Json.Float tail_pct);
        ("busy_s", Json.Float (!busy_ms /. 1000.));
        ("output_crc", Json.String out_crc);
        ( "setup_crc",
          Json.String (match !setup_crc with Some (Some c) -> c | _ -> "") );
      ]
  in
  print_endline ("info " ^ Json.to_string info);
  let metrics =
    if not trace then
      [
        ("setup_s", median (Array.of_list !setup_s), "s");
        ("op_p50_ms", median lat_a, "ms");
        ("avg_disp_rows", !q.avg_disp, "rows");
        ("max_disp_rows", !q.max_disp, "rows");
        ("hpwl_pct", !q.hpwl_pct, "%");
        ("ok_frac", 1. -. (float !failed /. float (max 1 !attempted)), "ratio");
        ("peak_heap_mb", peak_heap_mb (), "MB");
      ]
    else
      match !fp with
      | None -> []
      | Some f ->
        List.map
          (fun (k, v) -> (k, v, unit_of k))
          (per_layer_metrics tr agg ~per:n_traced ~setup_layers ~setups:w.setups f)
  in
  List.iter (fun (k, v, u) -> Printf.printf "%-28s %14.4f %s\n" k v u) metrics;
  let correct = !failed = 0 && n > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj (List.map (fun (k, v, u) -> (k, metric v u)) metrics) );
          ]));
  correct

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every random draw");
      ("--seconds", Arg.Set_int seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds < 1 then die "--seconds must be positive";
  List.iter
    (fun k ->
      match Sys.getenv_opt k with
      | Some v when v <> "" -> die "refusing to run with %s=%s set" k v
      | _ -> ())
    knobs;
  match List.find_opt (fun (W w) -> w.name = !workload) workloads with
  | None -> die "unknown workload %S" !workload
  | Some w ->
    if not (run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)) then
      exit 1
