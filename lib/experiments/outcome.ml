type t = {
  id : string;
  title : string;
  claim : string;
  tables : (string * Asyncolor_workload.Table.t) list;
  ok : bool;
  notes : string list;
}

let print t =
  Printf.printf "\n=== %s: %s ===\n" t.id t.title;
  Printf.printf "claim: %s\n" t.claim;
  List.iter
    (fun (caption, table) ->
      Printf.printf "\n-- %s --\n" caption;
      Asyncolor_workload.Table.print table)
    t.tables;
  List.iter (fun note -> Printf.printf "note: %s\n" note) t.notes;
  Printf.printf "verdict: %s\n" (if t.ok then "OK (claim reproduced)" else "MISMATCH")

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    s

let write_csvs ~dir t =
  List.map
    (fun (caption, table) ->
      let path = Filename.concat dir (Printf.sprintf "%s_%s.csv" (slug t.id) (slug caption)) in
      Asyncolor_workload.Table.write_csv path table;
      path)
    t.tables

let all_ok = List.for_all (fun t -> t.ok)
