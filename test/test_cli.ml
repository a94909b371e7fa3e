(* The repro CLI at its process boundary: flags an experiment run
   accepts must take effect, and flags it cannot honour must be
   refused by name rather than silently dropped. *)

let repro = Filename.concat (Filename.concat ".." "bin") "repro.exe"

(* Run repro with [args]; stdout and stderr go to files so the exit
   status is the command's own. *)
let run args =
  let out = Filename.temp_file "repro-cli" ".out" in
  let err = Filename.temp_file "repro-cli" ".err" in
  let cmd =
    String.concat " " (List.map Filename.quote (repro :: args))
    ^ " > " ^ Filename.quote out ^ " 2> " ^ Filename.quote err
  in
  let rc = Sys.command cmd in
  let slurp p = In_channel.with_open_bin p In_channel.input_all in
  let o = slurp out and e = slurp err in
  Sys.remove out;
  Sys.remove err;
  (rc, o, e)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_experiment_metrics () =
  let path = Filename.temp_file "repro-cli" ".json" in
  Sys.remove path;
  let rc, out, _ = run [ "run"; "T2"; "--metrics"; path ] in
  Alcotest.(check int) "exit status" 0 rc;
  Alcotest.(check bool) "reports the write" true (contains out path);
  let doc = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match Obs.Json.of_string doc with
  | Error e -> Alcotest.fail ("metrics file is not JSON: " ^ e)
  | Ok j ->
    let ids =
      Option.bind (Obs.Json.member "meta" j) (Obs.Json.member "experiments")
      |> Fun.flip Option.bind Obs.Json.to_list
      |> Option.map (List.filter_map Obs.Json.to_str)
    in
    Alcotest.(check (option (list string))) "meta names the experiment"
      (Some [ "T2" ]) ids;
    Alcotest.(check bool) "metrics registry exported" true
      (Option.is_some (Obs.Json.member "metrics" j))

let test_experiment_trace_events_rejected () =
  let path = Filename.temp_file "repro-cli" ".json" in
  Sys.remove path;
  let rc, out, err = run [ "run"; "T2"; "--trace-events"; path ] in
  Alcotest.(check bool) "non-zero exit" true (rc <> 0);
  Alcotest.(check bool) "error names the flag" true
    (contains err "--trace-events");
  Alcotest.(check bool) "experiment not run" false (contains out "E-T2");
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

let () =
  Alcotest.run "cli"
    [ ( "run",
        [ Alcotest.test_case "experiment --metrics written" `Quick
            test_experiment_metrics;
          Alcotest.test_case "experiment --trace-events rejected" `Quick
            test_experiment_trace_events_rejected
        ] )
    ]
