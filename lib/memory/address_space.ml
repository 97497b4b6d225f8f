type access = Read | Write

type fault = { space : Space_id.t; addr : int; page : int; access : access }

exception Page_fault of fault
exception Segv of { space : Space_id.t; addr : int; access : access }

type page = {
  data : Bytes.t;
  mutable prot : Prot.t;
  mutable written : int;  (** every byte at or past this offset is zero *)
}

type t = {
  id : Space_id.t;
  arch : Arch.t;
  page_size : int;
  page_shift : int;
  pages : page Int_table.t;
  mutable spare : page list;
      (** unmapped pages, whose frames the next [map]s reuse: spare plus
          mapped frames never exceed the peak mapped-page count *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(page_size = 4096) ~id ~arch () =
  if not (is_power_of_two page_size) then
    invalid_arg "Address_space.create: page_size must be a power of two";
  {
    id;
    arch;
    page_size;
    page_shift = log2 page_size;
    pages = Int_table.create 64;
    spare = [];
  }

let id t = t.id
let arch t = t.arch
let page_size t = t.page_size
let page_of_addr t addr = addr lsr t.page_shift
let page_base t page = page lsl t.page_shift

(* A page's frame is zero-filled whether it is new or reused, and no
   caller keeps a page's bytes past the access that got them, so a
   reused frame is indistinguishable from a new one. Reuse zeroes only
   the bytes up to the write mark: a cache page often holds one small
   datum. *)
let map t ~page ~prot =
  match Int_table.find t.pages page with
  | p -> p.prot <- prot
  | exception Not_found ->
    let p =
      match t.spare with
      | p :: rest ->
        t.spare <- rest;
        Bytes.fill p.data 0 p.written '\000';
        p.prot <- prot;
        p.written <- 0;
        p
      | [] -> { data = Bytes.make t.page_size '\000'; prot; written = 0 }
    in
    Int_table.add t.pages page p

let unmap t ~page =
  match Int_table.find t.pages page with
  | p ->
    Int_table.remove t.pages page;
    t.spare <- p :: t.spare
  | exception Not_found -> ()

let is_mapped t ~page = Int_table.mem t.pages page

let protection t ~page =
  Option.map (fun p -> p.prot) (Int_table.find_opt t.pages page)

let set_protection t ~page prot =
  match Int_table.find_opt t.pages page with
  | Some p -> p.prot <- prot
  | None -> invalid_arg "Address_space.set_protection: page not mapped"

let mapped_pages t =
  Int_table.fold (fun page _ acc -> page :: acc) t.pages [] |> List.sort Int.compare

let ensure_mapped t ~addr ~len ~prot =
  if len > 0 then begin
    let first = page_of_addr t addr and last = page_of_addr t (addr + len - 1) in
    for page = first to last do
      if not (is_mapped t ~page) then map t ~page ~prot
    done
  end

let allows prot = function
  | Read -> Prot.allows_read prot
  | Write -> Prot.allows_write prot

(* Walk the pages of [addr, addr+len), calling [f page_record
   offset_in_page offset_in_range chunk_len] per intersected page.
   [check] validates protection before any byte is touched so a faulting
   access has no partial effect, like a hardware trap. *)
let iter_range t ~addr ~len ~access ~check f =
  if len < 0 then invalid_arg "Address_space: negative length";
  if addr < 0 then raise (Segv { space = t.id; addr; access });
  if len > 0 then begin
    let first = page_of_addr t addr and last = page_of_addr t (addr + len - 1) in
    (* Validation pass: find the first unmapped or protection-violating
       page before touching anything. *)
    for page = first to last do
      match Int_table.find_opt t.pages page with
      | None ->
        let fault_addr = max addr (page_base t page) in
        raise (Segv { space = t.id; addr = fault_addr; access })
      | Some p ->
        if check && not (allows p.prot access) then
          let fault_addr = max addr (page_base t page) in
          raise (Page_fault { space = t.id; addr = fault_addr; page; access })
    done;
    let pos = ref addr in
    let done_ = ref 0 in
    while !done_ < len do
      let page = page_of_addr t !pos in
      let p = Int_table.find t.pages page in
      let off = !pos - page_base t page in
      let chunk = min (t.page_size - off) (len - !done_) in
      f p off !done_ chunk;
      pos := !pos + chunk;
      done_ := !done_ + chunk
    done
  end

(* The fast branch is one page lookup and [f] on the page's own bytes;
   it allocates nothing. A range straddling pages (or an invalid one)
   takes the slow branch: validated and copied out by [iter_range],
   then copied back when [f] may have written it. *)
let access t ~addr ~len acc ~check f x =
  let off = addr land (t.page_size - 1) in
  if addr >= 0 && len > 0 && off + len <= t.page_size then begin
    let page = addr lsr t.page_shift in
    match Int_table.find t.pages page with
    | p ->
      if check && not (allows p.prot acc) then
        raise (Page_fault { space = t.id; addr; page; access = acc });
      (match acc with
      | Write -> if off + len > p.written then p.written <- off + len
      | Read -> ());
      f t.arch p.data off x
    | exception Not_found -> raise (Segv { space = t.id; addr; access = acc })
  end
  else begin
    if len < 0 then invalid_arg "Address_space: negative length";
    let buf = Bytes.create len in
    iter_range t ~addr ~len ~access:acc ~check (fun p off dst chunk ->
        Bytes.blit p.data off buf dst chunk);
    let v = f t.arch buf 0 x in
    (match acc with
    | Read -> ()
    | Write ->
      iter_range t ~addr ~len ~access:Write ~check:false (fun p off src chunk ->
          if off + chunk > p.written then p.written <- off + chunk;
          Bytes.blit buf src p.data off chunk));
    v
  end

(* Bulk copies are accesses too: one page lookup and one blit when the
   range lies on one page. *)
let read_gen t ~check ~addr ~len =
  access t ~addr ~len Read ~check (fun _ b off len -> Bytes.sub b off len) len

let write_gen t ~check ~addr data =
  access t ~addr ~len:(Bytes.length data) Write ~check
    (fun _ b off data -> Bytes.blit data 0 b off (Bytes.length data))
    data

let read t ~addr ~len = read_gen t ~check:true ~addr ~len
let write t ~addr data = write_gen t ~check:true ~addr data
let read_unchecked t ~addr ~len = read_gen t ~check:false ~addr ~len
let write_unchecked t ~addr data = write_gen t ~check:false ~addr data

let fill_zero_unchecked t ~addr ~len =
  access t ~addr ~len Write ~check:false
    (fun _ b off len -> Bytes.fill b off len '\000')
    len

let pp_fault ppf f =
  Format.fprintf ppf "fault[%a] %s at 0x%x (page %d)" Space_id.pp f.space
    (match f.access with Read -> "read" | Write -> "write")
    f.addr f.page
