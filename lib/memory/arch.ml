type endian = Little | Big
type t = { name : string; word_size : int; endian : endian }

let ilp32_le = { name = "ilp32-le"; word_size = 4; endian = Little }
let sparc32 = { name = "sparc32"; word_size = 4; endian = Big }
let lp64_le = { name = "lp64-le"; word_size = 8; endian = Little }
let lp64_be = { name = "lp64-be"; word_size = 8; endian = Big }

let pp ppf a =
  let e = match a.endian with Little -> "le" | Big -> "be" in
  Format.fprintf ppf "%s(word=%d,%s)" a.name a.word_size e
