open Srpc_memory

type entry = {
  mutable lp : Long_pointer.t;
  mutable local_addr : int;
  mutable size : int;
  mutable present : bool;
  mutable dirty : bool;
  mutable prefetched : bool;
  mutable touched : bool;
  mutable version : int;
  mutable shadow : string option;
  mutable shadow_version : int;
  mutable pins : int list;
      (* admitted sessions that touched this entry ([] for an unadmitted
         session's entries) *)
}

type cursor = { mutable page : int; mutable off : int }

(* The entries on one page, and how many of them are absent: the page
   stays inaccessible while any is. *)
type page_entries = { mutable on_page : entry list; mutable absent : int }

(* What a fill cursor groups new entries by, per the allocation
   grouping. *)
type group = Origin of Space_id.t | All | Of_type of string

(* One scope's placement state, probed on every allocation. *)
type pool = {
  mutable cursors : (group * cursor) list;
      (** where each group's next entry goes: a handful, one per
          origin or type *)
  free_slots : int list ref Int_table.t;
      (** rounded size -> addresses of freed slots available for reuse *)
}

type t = {
  space : Address_space.t;
  base : int;
  limit : int;
  grouping : Strategy.alloc_grouping;
  grain : Strategy.writeback_grain;
  by_lp : entry Long_pointer.Lookup.t;
  by_addr : entry Int_table.t;
      (** its fold order is [iter_entries]' order, which reaches the
          write-back frames and the slot free lists *)
  by_page : page_entries Int_table.t;
  dirty_pages : unit Int_table.t;
  twins : bytes Int_table.t;
  mutable last_hit : entry option;
      (** [find_containing]'s last exact hit, forgotten whenever an entry
          leaves [by_addr] *)
  unscoped : pool;  (** scope [None] *)
  scoped : pool Int_table.t;  (** by session, for scope [Some session] *)
  mutable spare : entry list;
      (** dropped entries that [allocate] reuses: with the live ones they
          never outnumber the peak entry count *)
  mutable next_page : int;
  mutable allocated_bytes : int;
  mutable scope : int option;
      (** the admitted session new entries are placed for, pinned to,
          and flushed for. Fault handling is page-grained, so two
          sessions' entries must never share a page — the scope
          partitions the fill cursors and the free slots into pools.
          [None] (an unadmitted session, which owns the cache) keeps the
          whole-cache placement and flush byte-for-byte. *)
}

exception Region_full

let align = 8
let round_up n = (n + align - 1) land lnot (align - 1)

let create ~space ~base ~limit ~grouping ~grain =
  let psz = Address_space.page_size space in
  if base mod psz <> 0 || limit mod psz <> 0 then
    invalid_arg "Cache.create: region must be page-aligned";
  {
    space;
    base;
    limit;
    grouping;
    grain;
    by_lp = Long_pointer.Lookup.create 256;
    by_addr = Int_table.create 256;
    by_page = Int_table.create 64;
    dirty_pages = Int_table.create 16;
    twins = Int_table.create 16;
    last_hit = None;
    unscoped = { cursors = []; free_slots = Int_table.create 8 };
    scoped = Int_table.create 8;
    spare = [];
    next_page = base / psz;
    allocated_bytes = 0;
    scope = None;
  }

let set_scope t scope = t.scope <- scope
let scope t = t.scope

let in_region t addr = addr >= t.base && addr < t.limit

let psz t = Address_space.page_size t.space

(* A slot occupies the contiguous pages from its first to its last
   byte's. *)
let first_page t e = Address_space.page_of_addr t.space e.local_addr
let last_page t e = Address_space.page_of_addr t.space (e.local_addr + e.size - 1)

let fresh_pages t n =
  let first = t.next_page in
  if (first + n) * psz t > t.limit then raise Region_full;
  t.next_page <- first + n;
  first

let group_of t (lp : Long_pointer.t) =
  match t.grouping with
  | Strategy.By_origin -> Origin lp.origin
  | Strategy.Sequential -> All
  | Strategy.By_type -> Of_type lp.ty
  | Strategy.Entry_per_page -> assert false (* handled separately *)

let pool t =
  match t.scope with
  | None -> t.unscoped
  | Some session -> (
    match Int_table.find t.scoped session with
    | p -> p
    | exception Not_found ->
      let p = { cursors = []; free_slots = Int_table.create 8 } in
      Int_table.add t.scoped session p;
      p)

(* A cache's cursors all group by its one grouping, so [lp]'s cursor is
   found without building its group. *)
let in_group (lp : Long_pointer.t) = function
  | Origin x -> Space_id.equal x lp.origin
  | All -> true
  | Of_type x -> String.equal x lp.ty

let rec cursor_of lp = function
  | [] -> raise Not_found
  | (g, c) :: rest -> if in_group lp g then c else cursor_of lp rest

(* The address of a freed slot in [size]'s class, or -1. *)
let take_free_slot t ~size =
  let slots = (pool t).free_slots in
  if Int_table.length slots = 0 then -1
  else
    match Int_table.find slots (round_up size) with
    | { contents = addr :: rest } as r ->
      r := rest;
      addr
    | { contents = [] } -> -1
    | exception Not_found -> -1

let release_slot t ~addr ~size =
  let slots = (pool t).free_slots and key = round_up size in
  match Int_table.find slots key with
  | r -> r := addr :: !r
  | exception Not_found -> Int_table.add slots key (ref [ addr ])

(* Pick the slot address for a new entry. *)
let place t lp ~size =
  let psz = psz t in
  match t.grouping with
  | Strategy.Entry_per_page ->
    let n = (size + psz - 1) / psz in
    fresh_pages t (max n 1) * psz
  | Strategy.By_origin | Strategy.Sequential | Strategy.By_type ->
    let pool = pool t in
    let cursor =
      match cursor_of lp pool.cursors with
      | c -> c
      | exception Not_found ->
        let c = { page = -1; off = 0 } in
        pool.cursors <- (group_of t lp, c) :: pool.cursors;
        c
    in
    if size > psz then begin
      (* Large object: spans fresh whole pages; the tail of the last page
         keeps filling for this key. *)
      let n = (size + psz - 1) / psz in
      let first = fresh_pages t n in
      cursor.page <- first + n - 1;
      cursor.off <- round_up (size - ((n - 1) * psz));
      if cursor.off >= psz then begin
        cursor.page <- -1;
        cursor.off <- 0
      end;
      first * psz
    end
    else begin
      if cursor.page < 0 || psz - cursor.off < size then begin
        cursor.page <- fresh_pages t 1;
        cursor.off <- 0
      end;
      let addr = (cursor.page * psz) + cursor.off in
      cursor.off <- cursor.off + round_up size;
      if cursor.off >= psz then begin
        cursor.page <- -1;
        cursor.off <- 0
      end;
      addr
    end

let entries_on_page t page =
  match Int_table.find_opt t.by_page page with Some p -> p.on_page | None -> []

let absent_on_page t page =
  match Int_table.find_opt t.by_page page with Some p -> p.absent | None -> 0

let is_page_dirty t ~page = Int_table.mem t.dirty_pages page

(* A page's protection follows from how many of its entries are absent
   and whether it is dirty. *)
let protect_page t ~page ~absent =
  if Address_space.is_mapped t.space ~page then begin
    let prot =
      if absent > 0 then Prot.No_access
      else if is_page_dirty t ~page then Prot.Read_write
      else Prot.Read_only
    in
    Address_space.set_protection t.space ~page prot
  end

let refresh_protection t ~page = protect_page t ~page ~absent:(absent_on_page t page)

let allocate t lp ~size =
  if size <= 0 then invalid_arg "Cache.allocate: non-positive size";
  if Long_pointer.Lookup.mem t.by_lp lp then
    invalid_arg
      (Format.asprintf "Cache.allocate: %a already allocated" Long_pointer.pp lp);
  let local_addr =
    match take_free_slot t ~size with -1 -> place t lp ~size | addr -> addr
  in
  let entry =
    match t.spare with
    | [] ->
      {
        lp;
        local_addr;
        size;
        present = false;
        dirty = false;
        prefetched = false;
        touched = false;
        version = 0;
        shadow = None;
        shadow_version = -1;
        pins = [];
      }
    | e :: rest ->
      t.spare <- rest;
      e.lp <- lp;
      e.local_addr <- local_addr;
      e.size <- size;
      e.present <- false;
      e.dirty <- false;
      e.prefetched <- false;
      e.touched <- false;
      e.version <- 0;
      e.shadow <- None;
      e.shadow_version <- -1;
      e.pins <- [];
      e
  in
  Long_pointer.Lookup.add t.by_lp lp entry;
  Int_table.replace t.by_addr local_addr entry;
  for page = first_page t entry to last_page t entry do
    (match Int_table.find t.by_page page with
    | p ->
      p.on_page <- entry :: p.on_page;
      p.absent <- p.absent + 1
    | exception Not_found ->
      Int_table.add t.by_page page { on_page = [ entry ]; absent = 1 });
    (* the page now holds an absent entry: inaccessible, mapped on
       first use *)
    Address_space.map t.space ~page ~prot:Prot.No_access
  done;
  t.allocated_bytes <- t.allocated_bytes + round_up size;
  entry

let find_by_lp t lp = Long_pointer.Lookup.find_opt t.by_lp lp
let find_by_addr t addr = Int_table.find_opt t.by_addr addr

(* A program touches one datum several times in a row (a field read,
   then its write), so the last exact hit is asked first. *)
let find_containing t addr =
  match t.last_hit with
  | Some e as hit when e.local_addr = addr -> hit
  | Some _ | None -> (
    match Int_table.find_opt t.by_addr addr with
    | Some _ as hit ->
      t.last_hit <- hit;
      hit
    | None ->
      entries_on_page t (addr / psz t)
      |> List.find_opt (fun e ->
             addr >= e.local_addr && addr < e.local_addr + e.size))

let iter_entries t f =
  (* by_addr has exactly one binding per live entry *)
  Int_table.iter (fun _ e -> f e) t.by_addr

let entry_count t = Int_table.length t.by_addr

let mark_present t e =
  let arrived = not e.present in
  e.present <- true;
  for page = first_page t e to last_page t e do
    match Int_table.find t.by_page page with
    | p ->
      if arrived then p.absent <- p.absent - 1;
      protect_page t ~page ~absent:p.absent
    | exception Not_found -> protect_page t ~page ~absent:0
  done

let mark_page_dirty t ~page =
  if not (is_page_dirty t ~page) then begin
    if t.grain = Strategy.Twin_diff && not (Int_table.mem t.twins page) then begin
      let data =
        Address_space.read_unchecked t.space
          ~addr:(Address_space.page_base t.space page)
          ~len:(psz t)
      in
      Int_table.add t.twins page data
    end;
    Int_table.replace t.dirty_pages page ();
    refresh_protection t ~page
  end

let dirty_pages t =
  Int_table.fold (fun p () acc -> p :: acc) t.dirty_pages [] |> List.sort Int.compare

(* Byte range of [e] that lies on [page], as (addr, len). *)
let entry_range_on_page t e page =
  let pb = Address_space.page_base t.space page in
  let start = max e.local_addr pb in
  let stop = min (e.local_addr + e.size) (pb + psz t) in
  (start, stop - start)

let entry_changed_vs_twin t e =
  let changed_on page =
    match Int_table.find_opt t.twins page with
    | None -> false
    | Some twin ->
      let addr, len = entry_range_on_page t e page in
      if len <= 0 then false
      else
        let current = Address_space.read_unchecked t.space ~addr ~len in
        let off = addr - Address_space.page_base t.space page in
        not (Bytes.equal current (Bytes.sub twin off len))
  in
  let rec from page = page <= last_page t e && (changed_on page || from (page + 1)) in
  from (first_page t e)

let pin t e =
  match t.scope with
  | Some session when not (List.mem session e.pins) ->
    e.pins <- session :: e.pins
  | Some _ | None -> ()

let in_scope t e =
  match t.scope with None -> true | Some s -> List.mem s e.pins

let iter_scoped t f = iter_entries t (fun e -> if in_scope t e then f e)

(* Whether any page in [from, upto) is dirty. *)
let rec dirty_in t ~from ~upto =
  from < upto && (is_page_dirty t ~page:from || dirty_in t ~from:(from + 1) ~upto)

(* The dirty pages are walked in ascending order, so an entry on several
   of them is taken at the first: the one none of its pages before is
   dirty. *)
let dirty_entries t =
  let out = ref [] in
  List.iter
    (fun page ->
      List.iter
        (fun e ->
          if
            e.present && in_scope t e
            && not (dirty_in t ~from:(first_page t e) ~upto:page)
          then begin
            let ship =
              match t.grain with
              | Strategy.Page_grain -> true
              | Strategy.Twin_diff -> e.dirty || entry_changed_vs_twin t e
            in
            if ship then begin
              e.dirty <- true;
              out := e :: !out
            end
          end)
        (entries_on_page t page))
    (dirty_pages t);
  (* Entries dirtied without a page fault (installed writebacks, fresh
     remote allocations) may sit on pages never marked dirty; one with a
     dirty page was weighed above. *)
  iter_entries t (fun e ->
      if
        e.dirty && e.present && in_scope t e
        && not (dirty_in t ~from:(first_page t e) ~upto:(last_page t e + 1))
      then out := e :: !out);
  !out

let clean_after_flush t =
  match t.scope with
  | None ->
    iter_entries t (fun e -> e.dirty <- false);
    Int_table.reset t.twins;
    let pages = dirty_pages t in
    Int_table.reset t.dirty_pages;
    List.iter (fun page -> refresh_protection t ~page) pages
  | Some _ ->
    (* Session-scoped flush: only the session's entries are marked
       clean. Page dirty bits are left alone — a page may also carry
       another open session's page-grain dirtiness, which the entry
       flags cannot witness. The cost is conservative: the session's
       clean entries on a still-dirty page are re-shipped unchanged at
       its close (idempotent at the home, since footprints are
       disjoint). *)
    iter_scoped t (fun e -> e.dirty <- false)

let bump_version e = e.version <- e.version + 1

let sync_shadow e image =
  e.shadow <- Some image;
  e.shadow_version <- e.version

let shadow_base e =
  if e.shadow_version = e.version then e.shadow else None

let shadow_image e = e.shadow

(* Merge changed bytes closer than this into one range: each range costs
   8 bytes of framing plus padding, so tiny gaps are cheaper shipped. *)
let diff_gap = 8

let diff_ranges ~base ~now =
  let n = String.length base in
  if String.length now <> n then
    invalid_arg "Cache.diff_ranges: length mismatch";
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if base.[!i] <> now.[!i] then begin
      let start = !i in
      let stop = ref (!i + 1) in
      let last_diff = ref !i in
      let j = ref (!i + 1) in
      while !j < n && !j - !last_diff <= diff_gap do
        if base.[!j] <> now.[!j] then begin
          last_diff := !j;
          stop := !j + 1
        end;
        incr j
      done;
      out := (start, !stop) :: !out;
      i := !stop
    end
    else incr i
  done;
  List.rev_map
    (fun (start, stop) -> (start, String.sub now start (stop - start)))
    !out

let rebind t e lp =
  Long_pointer.Lookup.remove t.by_lp e.lp;
  e.lp <- lp;
  Long_pointer.Lookup.replace t.by_lp lp e

let remove t e =
  Long_pointer.Lookup.remove t.by_lp e.lp;
  Int_table.remove t.by_addr e.local_addr;
  t.last_hit <- None;
  for page = first_page t e to last_page t e do
    match Int_table.find_opt t.by_page page with
    | None -> ()
    | Some p ->
      p.on_page <- List.filter (fun e' -> e'.local_addr <> e.local_addr) p.on_page;
      if not e.present then p.absent <- p.absent - 1;
      refresh_protection t ~page
  done;
  release_slot t ~addr:e.local_addr ~size:e.size;
  t.allocated_bytes <- t.allocated_bytes - round_up e.size

let invalidate_session t ~session =
  (* Drop the closing session's cached copies without disturbing other
     open sessions' entries. Entries the session shares with nobody are
     removed (their slots recycle); shared pins are just released. *)
  let victims = ref [] in
  iter_entries t (fun e ->
      if List.mem session e.pins then begin
        e.pins <- List.filter (fun s -> s <> session) e.pins;
        if e.pins = [] then victims := e :: !victims
      end);
  List.iter (fun e -> remove t e) !victims;
  (* A page the drop emptied is unmapped and its frame recycled, and its
     dirty bit and twin go with it: under admission only an unadmitted
     flush would clear them, and the dirty set is walked at every close.
     Page numbers are never reused, so no later placement moves. *)
  List.iter
    (fun e ->
      for page = first_page t e to last_page t e do
        match Int_table.find_opt t.by_page page with
        | Some { on_page = []; _ } ->
          Int_table.remove t.by_page page;
          Int_table.remove t.dirty_pages page;
          Int_table.remove t.twins page;
          Address_space.unmap t.space ~page
        | Some _ | None -> ()
      done;
      t.spare <- e :: t.spare)
    !victims;
  (* The session's fill cursors and recycled slots die with it: its
     pages must not be refilled by a later session (page-grain fault
     handling would sweep across the sessions sharing the page). *)
  Int_table.remove t.scoped session

(* [by_addr]'s fold order is wire-visible, so it restarts from its
   initial size every session; the lookup-only [by_lp] and [by_page]
   keep the size they grew to. *)
let invalidate t =
  Int_table.iter (fun page _ -> Address_space.unmap t.space ~page) t.by_page;
  Int_table.iter (fun _ e -> t.spare <- e :: t.spare) t.by_addr;
  Long_pointer.Lookup.clear t.by_lp;
  Int_table.reset t.by_addr;
  t.last_hit <- None;
  Int_table.clear t.by_page;
  Int_table.reset t.dirty_pages;
  Int_table.reset t.twins;
  t.unscoped.cursors <- [];
  Int_table.reset t.unscoped.free_slots;
  Int_table.reset t.scoped;
  t.next_page <- t.base / psz t;
  t.allocated_bytes <- 0

let allocated_bytes t = t.allocated_bytes
let used_pages t = t.next_page - (t.base / psz t)

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let entries = Int_table.fold (fun _ e acc -> e :: acc) t.by_addr [] in
  (* by_lp <-> by_addr bijection *)
  let* () =
    if Long_pointer.Lookup.length t.by_lp <> List.length entries then
      err "by_lp has %d entries, by_addr %d"
        (Long_pointer.Lookup.length t.by_lp)
        (List.length entries)
    else Ok ()
  in
  let rec each = function
    | [] -> Ok ()
    | e :: rest ->
      let* () =
        match Long_pointer.Lookup.find_opt t.by_lp e.lp with
        | Some e' when e' == e -> Ok ()
        | _ -> err "entry 0x%x not reachable through its lp" e.local_addr
      in
      let* () =
        if in_region t e.local_addr && in_region t (e.local_addr + e.size - 1)
        then Ok ()
        else err "entry 0x%x outside region" e.local_addr
      in
      let rec indexed page =
        page > last_page t e
        || List.exists (fun e' -> e' == e) (entries_on_page t page)
           && Address_space.is_mapped t.space ~page
           && indexed (page + 1)
      in
      let* () =
        if indexed (first_page t e) then Ok ()
        else err "entry 0x%x missing from a page index" e.local_addr
      in
      each rest
  in
  let* () = each entries in
  (* no overlaps *)
  let sorted =
    List.sort (fun a b -> Int.compare a.local_addr b.local_addr) entries
  in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
      if a.local_addr + round_up a.size > b.local_addr then
        err "entries 0x%x and 0x%x overlap" a.local_addr b.local_addr
      else disjoint rest
    | _ -> Ok ()
  in
  let* () = disjoint sorted in
  (* protection consistent with state *)
  let pages = Int_table.fold (fun p _ acc -> p :: acc) t.by_page [] in
  let rec prot_ok = function
    | [] -> Ok ()
    | page :: rest -> (
      match Address_space.protection t.space ~page with
      | None -> err "page %d in table but unmapped" page
      | Some prot ->
        let es = entries_on_page t page in
        let missing = List.length (List.filter (fun e -> not e.present) es) in
        let expect =
          if missing > 0 then Prot.No_access
          else if is_page_dirty t ~page then Prot.Read_write
          else Prot.Read_only
        in
        if missing <> absent_on_page t page then
          err "page %d counts %d absent entries, holds %d" page
            (absent_on_page t page) missing
        else if es = [] || Prot.equal prot expect then prot_ok rest
        else
          err "page %d protection %s, expected %s" page (Prot.to_string prot)
            (Prot.to_string expect))
  in
  let* () = prot_ok pages in
  let total = List.fold_left (fun acc e -> acc + round_up e.size) 0 entries in
  if total = t.allocated_bytes then Ok ()
  else err "accounting: %d <> %d" total t.allocated_bytes

let pp_table ppf t =
  let pages =
    Int_table.fold (fun p _ acc -> p :: acc) t.by_page [] |> List.sort Int.compare
  in
  Format.fprintf ppf "@[<v>page # | offset | long pointer@,";
  List.iter
    (fun page ->
      let entries =
        entries_on_page t page
        |> List.sort (fun a b -> Int.compare a.local_addr b.local_addr)
      in
      List.iter
        (fun e ->
          let off = max 0 (e.local_addr - Address_space.page_base t.space page) in
          Format.fprintf ppf "%6d | %6d | %a@," page off Long_pointer.pp e.lp)
        entries)
    pages;
  Format.fprintf ppf "@]"
