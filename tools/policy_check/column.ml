(* Bounded exhaustive differential of the column engine
   (Memsim.Cache.column_access_chunk) against independent per-config
   caches driven by per-event Cache.access — the oracle.

   A three-size column with tiny geometries: 8-byte blocks (two
   words) in 16-, 32- and 64-byte caches, i.e. 2, 4 and 8 sets.  The
   alphabet is memory blocks {0, 2, 4} x both words x {read, write,
   alloc-write by the mutator; read, write by the collector} (the
   engine treats a collector alloc-write as a collector write): all
   three blocks share set 0 of the smallest member, 0 and 4 share a
   set of the middle one, and the largest separates them all, so
   every inclusion situation — and every way for valid masks and
   dirty bits to stop nesting — is reachable.  Every sequence up to [depth] events is explored; at
   each node the prefix is replayed into the column as one chunk, the
   last event is fed as its own chunk, and the members are compared
   with the oracle (tag, valid masks and dirty bit of every set, every
   counter) and the certificates are checked against their
   definition.

   A second prong restores the column from the state another column
   reached on a different sequence of the same length (so the
   reference-count check that guards against outside changes cannot
   tell) and continues with every single event: certificates must be
   forgotten on restore.

   [mutate] seeds a bug into the engine's use: taking the store fast
   path on certificate 1 (emulated by promoting such a certificate to
   2 just before a store), or keeping certificates across a restore.
   A correct checker must report findings for both. *)

module C = Memsim.Cache
module T = Memsim.Trace
module F = Check.Finding

type mutation =
  | Store_on_cert1
  | Keep_cert_on_restore

let mutation_label = function
  | Store_on_cert1 -> "cert-store-on-1"
  | Keep_cert_on_restore -> "cert-keep-on-restore"

let all_mutations = [ Store_on_cert1; Keep_cert_on_restore ]

let mutation_of_label l =
  List.find_opt (fun m -> String.equal (mutation_label m) l) all_mutations

type report = {
  label : string;
  nodes : int;
  fast : int;
  restores : int;
  events : int;
  findings : F.t list;
}

let cache_file = "lib/memsim/cache.ml"
let finding_cap = 50
let block_bytes = 8
let sizes = [ 16; 32; 64 ]

let alphabet =
  Array.of_list
    (List.concat_map
       (fun b ->
         List.concat_map
           (fun w ->
             List.map
               (fun (k, p) -> ((b * block_bytes) + (w * 4), k, p))
               [ (T.Read, T.Mutator); (T.Write, T.Mutator);
                 (T.Alloc_write, T.Mutator); (T.Read, T.Collector);
                 (T.Write, T.Collector) ])
           [ 0; 1 ])
       [ 0; 2; 4 ])

let show (a, k, p) =
  Printf.sprintf "%s@%d/%s"
    (match (k : T.kind) with
     | T.Read -> "r"
     | T.Write -> "w"
     | T.Alloc_write -> "a")
    a
    (match (p : T.phase) with T.Mutator -> "mut" | T.Collector -> "col")

let show_seq seq = String.concat " " (List.map show seq)

type ctx = {
  label : string;
  mutable findings : F.t list;
  mutable nfindings : int;
  mutable events : int;
}

let fail ctx rule fmt =
  Printf.ksprintf
    (fun msg ->
      if ctx.nfindings < finding_cap then begin
        ctx.findings <-
          F.v ~rule ~file:cache_file (ctx.label ^ ": " ^ msg) :: ctx.findings;
        ctx.nfindings <- ctx.nfindings + 1
      end)
    fmt

(* A fresh column and its oracle; building one is cheaper than
   restoring six caches to empty. *)
type rig = {
  column : C.column;
  members : C.t array;  (* smallest first *)
  oracle : C.t array;   (* same order, fed per event *)
}

let snapshot c =
  let b = Buffer.create (C.snapshot_bytes c) in
  C.snapshot c b;
  Buffer.to_bytes b

let make_rig policy ~collector_fow =
  let mk size =
    C.create
      (C.config ~write_miss_policy:policy
         ~collector_fetch_on_write:collector_fow ~size_bytes:size ~block_bytes
         ())
  in
  let column = C.column (List.map mk sizes) in
  let members = C.column_members column in
  let oracle = Array.of_list (List.map mk sizes) in
  { column; members; oracle }

let restore_all rig snaps =
  Array.iteri (fun i c -> ignore (C.restore c snaps.(i) 0)) rig.members;
  Array.iteri (fun i c -> ignore (C.restore c snaps.(i) 0)) rig.oracle

(* The events [seq.(off .. off+len-1)] (alphabet indices), packed in
   [buf] at the same positions: one chunk into the column, one event
   at a time into the oracle. *)
let feed ctx rig buf seq off len =
  if len > 0 then begin
    C.column_access_chunk rig.column buf off len;
    for i = off to off + len - 1 do
      let a, k, p = alphabet.(seq.(i)) in
      Array.iter (fun c -> C.access c a k p) rig.oracle
    done;
    ctx.events <- ctx.events + len
  end

let packed = Array.map (fun (a, k, p) -> Memsim.Chunk.pack a k p) alphabet

(* Put event [e] at position [i] of the sequence and its buffer. *)
let put buf seq i e =
  seq.(i) <- e;
  Bigarray.Array1.set buf i packed.(e)

let events_of seq n = List.init n (fun i -> alphabet.(seq.(i)))

(* The emulated "store fast path on certificate 1": promote the
   certificate of the event's set from 1 to 2 just before a store. *)
let promote_for_store rig (a, k, _) =
  match (k : T.kind) with
  | T.Read -> ()
  | T.Write | T.Alloc_write ->
    let cert = C.column_certificates rig.column in
    let set = a / block_bytes mod C.num_blocks rig.members.(0) in
    if Bytes.get cert set = '\001' then Bytes.set cert set '\002'

(* Members against the oracle, set by set and counter by counter, then
   the certificates against their definition. *)
let compare ctx rig seq =
  let seq () = show_seq (seq ()) in
  Array.iteri
    (fun j m ->
      let o = rig.oracle.(j) in
      let size = (C.geometry m).C.size_bytes in
      for set = 0 to C.num_blocks m - 1 do
        if
          C.line_tag m ~set <> C.line_tag o ~set
          || C.line_valid_words m ~set <> C.line_valid_words o ~set
          || C.line_dirty m ~set <> C.line_dirty o ~set
        then
          fail ctx "column.state"
            "%db member, set %d differs from the oracle after [%s]" size set
            (seq ())
      done;
      if C.stats m <> C.stats o then
        fail ctx "column.counters"
          "%db member's counters differ from the oracle after [%s]" size
          (seq ()))
    rig.members;
  let small = rig.members.(0) in
  let cert = C.column_certificates rig.column in
  for set = 0 to C.num_blocks small - 1 do
    let c = Char.code (Bytes.get cert set) in
    let b = C.line_tag small ~set in
    let lo0, hi0 = C.line_valid_words small ~set in
    if c > 2 then fail ctx "column.cert" "set %d holds certificate %d" set c
    else if c >= 1 then
      for j = 1 to Array.length rig.members - 1 do
        let m = rig.members.(j) in
        let s = if b < 0 then 0 else b mod C.num_blocks m in
        let lo, hi = C.line_valid_words m ~set:s in
        if b < 0 || C.line_tag m ~set:s <> b then
          fail ctx "column.cert"
            "certificate %d on set %d, but the %db member does not hold block \
             %d after [%s]"
            c set (C.geometry m).C.size_bytes b (seq ())
        else if lo land lo0 <> lo0 || hi land hi0 <> hi0 then
          fail ctx "column.cert"
            "certificate %d on set %d, but the %db member's valid mask does \
             not cover the smallest's after [%s]"
            c set (C.geometry m).C.size_bytes (seq ())
        else if c = 2 && not (C.line_dirty m ~set:s) then
          fail ctx "column.cert"
            "certificate 2 on set %d, but the %db member's copy is clean \
             after [%s]"
            set (C.geometry m).C.size_bytes (seq ())
      done
  done

(* Every sequence up to [depth]: replay the prefix as one chunk, the
   last event as its own. *)
(* Whether the column will settle [ev] with one lookup: a full hit in
   the smallest member whose certificate covers it. *)
let covered rig (a, k, _) =
  let small = rig.members.(0) in
  let set = a / block_bytes mod C.num_blocks small in
  let lo, _ = C.line_valid_words small ~set in
  let need =
    match (k : T.kind) with T.Read -> 1 | T.Write | T.Alloc_write -> 2
  in
  C.line_tag small ~set = a / block_bytes
  && lo land (1 lsl (a / 4 mod 2)) <> 0
  && Char.code (Bytes.get (C.column_certificates rig.column) set) >= need

let explore ctx ?mutate fresh ~depth =
  let nodes = ref 0 and fast = ref 0 in
  let seq = Array.make depth 0 in
  let buf = Memsim.Chunk.create_buf depth in
  let rec go d =
    if d < depth && ctx.nfindings < finding_cap then
      for e = 0 to Array.length alphabet - 1 do
        incr nodes;
        put buf seq d e;
        let rig = fresh () in
        feed ctx rig buf seq 0 d;
        (match mutate with
         | Some Store_on_cert1 -> promote_for_store rig alphabet.(e)
         | Some Keep_cert_on_restore | None -> ());
        if covered rig alphabet.(e) then incr fast;
        feed ctx rig buf seq d 1;
        compare ctx rig (fun () -> events_of seq (d + 1));
        go (d + 1)
      done
  in
  go 0;
  (!nodes, !fast)

(* The partner of an event: a mutator store to the same word of the
   next block in the alphabet.  A partner sequence has the original's
   length and drives certificates to 2 on states the original does
   not share. *)
let partner e =
  let a, _, _ = alphabet.(e) in
  let a' = (a + (2 * block_bytes)) mod (6 * block_bytes) in
  let rec find i =
    match alphabet.(i) with
    | b, T.Write, T.Mutator when b = a' -> i
    | _ -> find (i + 1)
  in
  find 0

let restores ctx ?mutate fresh ~depth =
  let count = ref 0 in
  let seq = Array.make (depth + 1) 0 and pseq = Array.make depth 0 in
  let buf = Memsim.Chunk.create_buf (depth + 1)
  and pbuf = Memsim.Chunk.create_buf depth in
  let rec go d =
    if d < depth && ctx.nfindings < finding_cap then
      for e = 0 to Array.length alphabet - 1 do
        put buf seq d e;
        put pbuf pseq d (partner e);
        let rig = fresh () in
        feed ctx rig buf seq 0 (d + 1);
        let snaps = Array.map snapshot rig.members in
        for next = 0 to Array.length alphabet - 1 do
          incr count;
          put buf seq (d + 1) next;
          let other = fresh () in
          feed ctx other pbuf pseq 0 (d + 1);
          restore_all other snaps;
          (match mutate with
           | Some Keep_cert_on_restore -> ()
           | Some Store_on_cert1 | None -> C.column_reset other.column);
          feed ctx other buf seq (d + 1) 1;
          compare ctx other (fun () -> events_of seq (d + 2))
        done;
        go (d + 1)
      done
  in
  go 0;
  !count

let policy_label = function
  | C.Write_validate -> "write-validate"
  | C.Fetch_on_write -> "fetch-on-write"

let check ?mutate ?(depth = 4) policy ~collector_fow =
  let ctx =
    {
      label =
        Printf.sprintf "column/%s%s" (policy_label policy)
          (if collector_fow then "" else "/no-collector-fow");
      findings = [];
      nfindings = 0;
      events = 0;
    }
  in
  let fresh () = make_rig policy ~collector_fow in
  let nodes, fast = explore ctx ?mutate fresh ~depth in
  if fast = 0 && depth >= 2 then
    fail ctx "column.coverage"
      "no explored event took the one-lookup path: the differential \
       never exercised the certificate";
  let restores = restores ctx ?mutate fresh ~depth:(max 1 (depth - 2)) in
  {
    label = ctx.label;
    nodes;
    fast;
    restores;
    events = ctx.events;
    findings = List.rev ctx.findings;
  }

let configs =
  [ (C.Write_validate, true);
    (C.Fetch_on_write, true);
    (C.Write_validate, false) ]

let certificate_entry (r : report) =
  let open Obs.Json in
  Obj
    [
      ("column", Str r.label);
      ("sizes", List (List.map (fun s -> Int s) sizes));
      ("block_bytes", Int block_bytes);
      ("nodes", Int r.nodes);
      ("one_lookup_events", Int r.fast);
      ("restores", Int r.restores);
      ("events", Int r.events);
      ("findings", Int (List.length r.findings));
      ( "status",
        Str (if F.has_errors r.findings then "failed" else "verified") );
    ]
