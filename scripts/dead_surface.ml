(* The dead-surface rule.

   Reads the .cmt/.cmti files dune writes and reports two kinds of item:
   - every [val] or [module] a library interface exports that nothing
     outside its own module and the test directories references;
   - every library in a dune [libraries] field that no module of that
     stanza imports.

   Values are resolved by the compiler, not by name: an identifier in a
   .cmt carries the location of the declaration it denotes, so [E.key]
   through [module E = Engine.Make (P)] lands on [val key] in engine.mli.
   A module counts as used when any path in a caller names it, when a
   caller passes it whole (functor argument, [include], first-class
   module), or when any export inside it is used.  That may keep a dead
   module, but it never reports a used one.

   Usage, from the build root (_build/default):

     dead_surface.exe [-allow FILE] [-tests DIR]... DIR...

   Each DIR holds a dune file.  Exports come from the library stanzas of
   the DIRs; references from every stanza of the DIRs count, those of
   the -tests DIRs do not, though their [libraries] fields are checked.
   Each line of FILE is [NAME REASON]: NAME as the rule prints it, and a
   reason saying which test, oracle or benchmark probe needs the item.
   Every finding FILE does not name prints on stdout, and so does every
   line of FILE that names nothing the rule reports; either makes the
   exit code 1. *)

open Typedtree

(* ---- dune files ---- *)

type sexp = Atom of string | List of sexp list

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_sexps s =
  let n = String.length s in
  let rec skip i =
    if i >= n then i
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
      | ';' -> (
          match String.index_from_opt s i '\n' with Some j -> skip j | None -> n)
      | _ -> i
  in
  let rec item i =
    match s.[i] with
    | '(' -> items (i + 1) []
    | '"' ->
        let b = Buffer.create 16 in
        let rec go j =
          match s.[j] with
          | '"' -> (Atom (Buffer.contents b), j + 1)
          | '\\' ->
              Buffer.add_char b s.[j + 1];
              go (j + 2)
          | c ->
              Buffer.add_char b c;
              go (j + 1)
        in
        go (i + 1)
    | _ ->
        let j = ref i in
        while !j < n && not (String.contains " \t\n\r();\"" s.[!j]) do
          incr j
        done;
        (Atom (String.sub s i (!j - i)), !j)
  and items i acc =
    let i = skip i in
    if s.[i] = ')' then (List (List.rev acc), i + 1)
    else
      let x, i = item i in
      items i (x :: acc)
  in
  let rec top i acc =
    let i = skip i in
    if i >= n then List.rev acc
    else
      let x, i = item i in
      top i (x :: acc)
  in
  top 0 []

type stanza = {
  dir : string;
  name : string;  (** the library name, or the first executable name *)
  libraries : string list;
  objs : string;  (** where dune writes the stanza's .cmt/.cmti files *)
  is_lib : bool;
}

let stanzas dir =
  let field key fields =
    List.find_map
      (function List (Atom k :: v) when k = key -> Some v | _ -> None)
      fields
  in
  let atoms = List.filter_map (function Atom a -> Some a | List _ -> None) in
  parse_sexps (read_file (Filename.concat dir "dune"))
  |> List.filter_map (function
       | List (Atom kind :: fields) -> (
           let names =
             match kind with
             | "library" | "executable" | "test" -> field "name" fields
             | "executables" | "tests" -> field "names" fields
             | _ -> None
           in
           match Option.map atoms names with
           | Some (name :: _) ->
               let is_lib = kind = "library" in
               Some
                 {
                   dir;
                   name;
                   is_lib;
                   libraries =
                     atoms (Option.value ~default:[] (field "libraries" fields));
                   objs =
                     Printf.sprintf "%s/.%s.%s/byte" dir name
                       (if is_lib then "objs" else "eobjs");
                 }
           | _ -> None)
       | _ -> None)

(* The top-level modules of the external libraries the tree uses.  A
   library missing here stops the rule rather than passing unchecked. *)
let external_modules = function
  | "unix" -> [ "Unix"; "UnixLabels" ]
  | "cmdliner" -> [ "Cmdliner" ]
  | "alcotest" -> [ "Alcotest" ]
  | "astring" -> [ "Astring" ]
  | "qcheck" | "qcheck-core" -> [ "QCheck"; "QCheck2"; "QCheck_base_runner" ]
  | "qcheck-alcotest" -> [ "QCheck_alcotest" ]
  | lib ->
      Printf.eprintf "dead_surface: no module list for library %s\n" lib;
      exit 2

let units st =
  Sys.readdir st.objs |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
  |> List.sort compare
  |> List.map (fun f -> Cmt_format.read_cmt (Filename.concat st.objs f))

(* [Asyncolor_kernel__Engine] -> [Engine] *)
let public_name modname =
  let rec go i =
    if i < 1 then modname
    else if modname.[i] = '_' && modname.[i - 1] = '_' then
      String.sub modname (i + 1) (String.length modname - i - 1)
    else go (i - 1)
  in
  go (String.length modname - 1)

(* ---- exports ---- *)

type export = {
  qname : string;
  simple : string;
  loc : Location.t;
  owner : string;  (** the compilation unit that declares it *)
  scope : string list;  (** simple names of the enclosing modules *)
  is_module : bool;
}

let exports_of_interface owner (s : signature) =
  let rec items prefix scope acc sg =
    List.fold_left
      (fun acc item ->
        match item.sig_desc with
        | Tsig_value vd ->
            {
              qname = prefix ^ vd.val_name.txt;
              simple = vd.val_name.txt;
              loc = vd.val_loc;
              owner;
              scope;
              is_module = false;
            }
            :: acc
        | Tsig_module { md_name = { txt = Some m; _ }; md_loc; md_type; _ } ->
            let e =
              {
                qname = prefix ^ m;
                simple = m;
                loc = md_loc;
                owner;
                scope;
                is_module = true;
              }
            in
            mty (prefix ^ m ^ ".") (m :: scope) (e :: acc) md_type
        | _ -> acc)
      acc sg
  and mty prefix scope acc t =
    match t.mty_desc with
    | Tmty_signature s -> items prefix scope acc s.sig_items
    | Tmty_functor (_, body) -> mty prefix scope acc body
    | _ -> acc
  in
  let m = public_name owner in
  items (m ^ ".") [ m ] [] s.sig_items

(* ---- references ---- *)

type uses = {
  values : (string * int, unit) Hashtbl.t;  (** declaration file, offset *)
  names : (string, unit) Hashtbl.t;  (** module names any path mentions *)
  whole : (string, unit) Hashtbl.t;  (** modules passed or included whole *)
}

let rec lid_modules add = function
  | Longident.Lident _ -> ()
  | Ldot (l, _) -> lid_names add l
  | Lapply (a, b) ->
      lid_names add a;
      lid_names add b

and lid_names add = function
  | Longident.Lident m -> add m
  | Ldot (l, m) ->
      add m;
      lid_names add l
  | Lapply (a, b) ->
      lid_names add a;
      lid_names add b

(* The uses in one compilation unit: its implementation, or its
   interface, whose types may name another unit's modules. *)
let scan_uses uses (annots : Cmt_format.binary_annots) =
  let name m = Hashtbl.replace uses.names m () in
  let rec whole me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Hashtbl.replace uses.whole (Path.last p) ()
    | Tmod_constraint (inner, _, _, _) -> whole inner
    | _ -> ()
  in
  let open Tast_iterator in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, lid, vd) ->
        let p = vd.val_loc.loc_start in
        Hashtbl.replace uses.values (p.pos_fname, p.pos_cnum) ();
        lid_modules name lid.txt
    | Texp_construct (lid, _, _)
    | Texp_field (_, lid, _)
    | Texp_setfield (_, lid, _, _) ->
        lid_modules name lid.txt
    | Texp_record { fields; _ } ->
        Array.iter
          (function _, Overridden (lid, _) -> lid_modules name lid.txt | _ -> ())
          fields
    | Texp_pack me -> whole me
    | _ -> ());
    default_iterator.expr sub e
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_construct (lid, _, _, _) -> lid_modules name lid.txt
    | Tpat_record (fields, _) ->
        List.iter
          (fun ((lid : Longident.t Location.loc), _, _) -> lid_modules name lid.txt)
          fields
    | _ -> ());
    default_iterator.pat sub p
  in
  let module_expr sub me =
    (match me.mod_desc with
    | Tmod_ident (_, lid) -> lid_names name lid.txt
    | Tmod_apply (_, arg, _) -> whole arg
    | Tmod_constraint (inner, _, Tmodtype_explicit _, _) -> whole inner
    | _ -> ());
    default_iterator.module_expr sub me
  in
  let module_type sub mt =
    (match mt.mty_desc with
    | Tmty_ident (_, lid) | Tmty_alias (_, lid) -> lid_names name lid.txt
    | _ -> ());
    default_iterator.module_type sub mt
  in
  let typ sub t =
    (match t.ctyp_desc with
    | Ttyp_constr (_, lid, _) -> lid_modules name lid.txt
    | _ -> ());
    default_iterator.typ sub t
  in
  let structure_item sub si =
    (match si.str_desc with Tstr_include i -> whole i.incl_mod | _ -> ());
    default_iterator.structure_item sub si
  in
  let it =
    {
      default_iterator with
      expr;
      pat;
      module_expr;
      module_type;
      typ;
      structure_item;
    }
  in
  match annots with
  | Implementation s -> it.structure it s
  | Interface s -> it.signature it s
  | _ -> ()

(* ---- the rule ---- *)

let () =
  let allow = ref None and tests = ref [] and dirs = ref [] in
  Arg.parse
    [
      ("-allow", Arg.String (fun f -> allow := Some f), "FILE allowlist");
      ("-tests", Arg.String (fun d -> tests := d :: !tests), "DIR test stanzas");
    ]
    (fun d -> dirs := d :: !dirs)
    "dead_surface.exe [-allow FILE] [-tests DIR]... DIR...";
  let rec walk dir =
    let subdirs =
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter (fun d -> d.[0] <> '.' && d.[0] <> '_')
      |> List.map (Filename.concat dir)
      |> List.filter Sys.is_directory
    in
    (if Sys.file_exists (Filename.concat dir "dune") then stanzas dir else [])
    @ List.concat_map walk subdirs
  in
  let callers = List.concat_map walk (List.rev !dirs) in
  let testers = List.concat_map walk (List.rev !tests) in
  let all = callers @ testers in
  let local_libs = List.map (fun st -> st.name) all in
  let findings = ref [] in
  let report key what where =
    findings := (key, Printf.sprintf "%s %s (%s)" what key where) :: !findings
  in
  (* Unused libraries: no unit of the stanza imports any of its modules. *)
  List.iter
    (fun st ->
      let imports =
        List.concat_map
          (fun (c : Cmt_format.cmt_infos) -> List.map fst c.cmt_imports)
          (units st)
      in
      List.iter
        (fun lib ->
          let provides =
            if List.mem lib local_libs then (
              let m = String.capitalize_ascii lib in
              let pre = m ^ "__" in
              fun u -> u = m || String.starts_with ~prefix:pre u)
            else
              let ms = external_modules lib in
              fun u -> List.mem u ms
          in
          if not (List.exists provides imports) then
            report (st.name ^ ":" ^ lib) "unused library"
              (Filename.concat st.dir "dune"))
        st.libraries)
    all;
  (* Dead exports. *)
  let exports = ref [] and uses_by_unit = ref [] in
  List.iter
    (fun st ->
      List.iter
        (fun (c : Cmt_format.cmt_infos) ->
          (match c.cmt_annots with
          | Interface s when st.is_lib ->
              exports := exports_of_interface c.cmt_modname s @ !exports
          | _ -> ());
          let u =
            {
              values = Hashtbl.create 256;
              names = Hashtbl.create 64;
              whole = Hashtbl.create 8;
            }
          in
          scan_uses u c.cmt_annots;
          uses_by_unit := (c.cmt_modname, u) :: !uses_by_unit)
        (units st))
    callers;
  let used_by e f =
    List.exists (fun (unit, u) -> unit <> e.owner && f u) !uses_by_unit
  in
  let directly_used e =
    used_by e (fun u ->
        List.exists (fun m -> Hashtbl.mem u.whole m) e.scope
        || (e.is_module && Hashtbl.mem u.names e.simple)
        || ((not e.is_module)
           && Hashtbl.mem u.values (e.loc.loc_start.pos_fname, e.loc.loc_start.pos_cnum)))
  in
  let used = Hashtbl.create 256 in
  List.iter
    (fun e ->
      if directly_used e then (
        (* A used export keeps every module that encloses it. *)
        Hashtbl.replace used e.qname ();
        String.iteri
          (fun i c -> if c = '.' then Hashtbl.replace used (String.sub e.qname 0 i) ())
          e.qname))
    !exports;
  List.iter
    (fun e ->
      if not (Hashtbl.mem used e.qname) then
        let p = e.loc.loc_start in
        report e.qname "dead export" (Printf.sprintf "%s:%d" p.pos_fname p.pos_lnum))
    !exports;
  (* The allowlist. *)
  let allowed =
    match !allow with
    | None -> []
    | Some f ->
        read_file f |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               let line = String.trim line in
               if line = "" || line.[0] = '#' then None
               else
                 match String.index_opt line ' ' with
                 | Some i when String.trim (String.sub line i (String.length line - i)) <> "" ->
                     Some (String.sub line 0 i)
                 | _ ->
                     Printf.printf "allowlist line without a reason: %s\n" line;
                     Some "")
  in
  let bad =
    List.filter (fun (key, _) -> not (List.mem key allowed)) !findings
    |> List.sort_uniq compare
  in
  List.iter (fun (_, line) -> print_endline line) bad;
  let stale =
    List.filter
      (fun key -> key <> "" && not (List.mem_assoc key !findings))
      allowed
  in
  List.iter (Printf.printf "allowlisted but not reported %s\n") stale;
  if bad <> [] || stale <> [] || List.mem "" allowed then exit 1
