(* Golden placement digests: the CRC-32 of the serialized placement of a
   fixed set of legalizer runs, pinned to the values the list-based
   selection kernel and the full-scan relief produced before the flat
   kernel replaced them.  Any change to the legalizer's observable output
   (a reordered tie, a different relief destination, a changed float
   accumulation order) changes a digest.  A deliberate behaviour change
   must re-pin these values and say why. *)

module L = Tdf_legalizer
module Spec = Tdf_benchgen.Spec
module Delta = Tdf_io.Delta
module Eco = Tdf_incremental.Eco

let digest design p =
  Tdf_util.Crc32.(to_hex (string (Tdf_io.Text.placement_to_string design p)))

let configs =
  [
    ("default", L.Config.default);
    ("no_d2d", L.Config.no_d2d);
    ("bonn", L.Config.bonn_emulation);
  ]

(* (suite, case, [default; no_d2d; bonn] digests) at scale 0.05. *)
let golden =
  [
    (Spec.Iccad2022, "case3", [ "8f7c9641"; "d105c6b8"; "6c0fc31c" ]);
    (Spec.Iccad2022, "case3h", [ "b397ec98"; "1b1ea80d"; "681d0b4f" ]);
    (Spec.Iccad2023, "case2", [ "d1ebf4d5"; "62a72b70"; "2fafb528" ]);
    (Spec.Iccad2023, "case2h1", [ "31865f76"; "7bcbb7c0"; "ab2e4fc7" ]);
    (Spec.Iccad2023, "case2h2", [ "cb82312f"; "a28ac339"; "40d0fbea" ]);
    (Spec.Iccad2023, "case3", [ "03195442"; "f9d629e5"; "8074ed8e" ]);
    (Spec.Iccad2023, "case4", [ "194a9b7b"; "408c08c4"; "8532ecfe" ]);
  ]

let test_flow3d (suite, case, digests) () =
  let design = Tdf_benchgen.Gen.generate ~scale:0.05 (Spec.find suite case) in
  List.iter2
    (fun (name, cfg) want ->
      let r = L.Flow3d.legalize ~cfg design in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s %s" (Spec.suite_slug suite) case name)
        want
        (digest design r.L.Flow3d.placement))
    configs digests

(* A masked (local) ECO: the dirty region is 27 of 116 bins, so the
   digest pins the masked flow pass. *)
let test_eco_masked () =
  let d =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.05 Spec.Iccad2023 "case2"
  in
  let prev = (L.Flow3d.legalize d).L.Flow3d.placement in
  let delta =
    [
      Delta.Move { cell = 10; x = 500; y = 300; die = 0 };
      Delta.Move { cell = 42; x = 510; y = 305; die = 0 };
    ]
  in
  match Eco.run d prev delta with
  | Error e -> Alcotest.fail (Eco.error_to_string e)
  | Ok r ->
    Alcotest.(check string)
      "solved locally" "local(r=4)"
      (Eco.path_name r.Eco.stats.Eco.path);
    Alcotest.(check string)
      "eco digest" "ad1e74df"
      (digest r.Eco.design r.Eco.placement)

let suite =
  List.map
    (fun ((suite, case, _) as g) ->
      Alcotest.test_case
        (Printf.sprintf "flow3d %s/%s digests" (Spec.suite_slug suite) case)
        `Quick (test_flow3d g))
    golden
  @ [ Alcotest.test_case "masked eco digest" `Quick test_eco_masked ]
