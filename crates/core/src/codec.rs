//! The wire format, decided in one place: the frame schema, both
//! codecs derived from it, length-prefixed framing, and bit-packed
//! full-state delivery.
//!
//! Every wire record — [`ClientFrame`], [`ServerFrame`], [`JobEvent`],
//! and [`JobOutput`] — is declared once, as one row of the `frames!`
//! table below: its binary tag byte, its text keyword, and its typed
//! fields in wire order. The table generates both codecs:
//!
//! * **text** (the default, and the on-disk store format): one line
//!   per frame, `keyword field field …`, with `Display`/`FromStr` on
//!   the frame types ([`proto`] documents the grammar);
//! * **binary** (negotiated with `hello codec=binary`): a tagged record
//!   inside a `u32`-length-prefixed frame ([`write_frame`],
//!   [`FrameBuffer`]), capped at [`MAX_FRAME`] so a corrupt prefix
//!   cannot make a session allocate unboundedly. Integers are
//!   fixed-width little-endian (`u32` for shard indices, `u64` for
//!   everything else, `usize` widened to `u64`), floats are IEEE-754
//!   bit patterns, strings and blob bytes are `u32`-length-prefixed.
//!
//! A field's *kind* says how it crosses both codecs: a keyed value
//! (`key=<value>`; numbers, flags, the codec, state blobs), a keyed hex
//! fingerprint, a keyed rest-of-line string (`spec=`), a keyed escaped
//! string (`message=`), an optional id (`id=-`), a blob list, the
//! optional communication summary, an unkeyed nested record (`event …
//! <event>`, `finished <result>`), or an unkeyed error token (`rejected
//! <reason>`, `failed <error>`). Adding a frame is one table row plus
//! its handler in [`net`](crate::net). The [`JobResult`] envelope is the
//! one hand-written record: its two codecs order its fields
//! differently, and both layouts are frozen (`tests/wire_golden.rs`
//! pins every variant's bytes).
//!
//! The payload that motivates the binary codec is [`StateBlob`]: a full
//! configuration packed at the width its domain needs, reusing the
//! engine's [`Packing`] rules — two-spin models (Ising, hardcore) ship
//! one **bit** per vertex, `q ≤ 256` colorings one **byte**, and only
//! `q > 256` falls back to full `u32` lanes. A 256×256 torus state is
//! thus 8 KB (Ising) to 64 KB (colorings) instead of 256 KB. Blobs ride
//! in `sample` job results and `stream` job events
//! ([`JobEvent::State`]); on the text codec they fall back to a
//! base64url token so text sessions stay fully functional.
//!
//! Both codecs answer bit-identical results — property-tested in
//! `tests/codec_identity.rs` the same way remote-vs-local identity is.

use crate::engine::Packing;
use crate::lifecycle::RejectReason;
use crate::proto::{self, escape, field, unescape, wire_err, ClientFrame, ServerFrame, WireError};
use crate::service::JobEvent;
use crate::spec::{CommSummary, JobOutput, JobResult, SpecError};
use lsl_mrf::Spin;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::str::FromStr;

/// Upper bound on one binary frame's payload, enforced on both encode
/// and decode. A length prefix above this answers a typed error and the
/// session resynchronizes after the 4 header bytes.
pub const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a binary frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize {
        /// The claimed payload length.
        len: u64,
    },
    /// The payload ended before the record it promised.
    Truncated,
    /// The payload is structurally wrong (bad tag, trailing bytes,
    /// invalid blob, out-of-range spin, …).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Oversize { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            CodecError::Truncated => write!(f, "truncated binary frame"),
            CodecError::Malformed(m) => write!(f, "malformed binary frame: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn malformed(m: impl Into<String>) -> CodecError {
    CodecError::Malformed(m.into())
}

// ---------------------------------------------------------------------
// Codec selection
// ---------------------------------------------------------------------

/// Which wire format a session speaks. Sessions start in [`Codec::Text`]
/// and may switch once via the `hello` handshake.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Codec {
    /// The line-delimited text protocol ([`proto`]) —
    /// canonical, debuggable, and the store format.
    #[default]
    Text,
    /// Length-prefixed tagged binary frames — compact, and the only
    /// format that ships [`StateBlob`]s without base64 overhead.
    Binary,
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::Text => write!(f, "text"),
            Codec::Binary => write!(f, "binary"),
        }
    }
}

impl FromStr for Codec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Codec::Text),
            "binary" => Ok(Codec::Binary),
            other => Err(format!("unknown codec {other:?} (expected text | binary)")),
        }
    }
}

// ---------------------------------------------------------------------
// StateBlob: bit-packed configurations on the wire
// ---------------------------------------------------------------------

/// A full configuration packed for the wire at the width its domain
/// needs — the engine's [`Packing::auto_for`] rule applied to transport.
///
/// The packing is a function of `q`, so it is never stored: `q ≤ 2` is
/// one bit per vertex (LSB-first), `q ≤ 256` one byte, larger `q` a
/// `u32` little-endian lane each. Construction validates every spin
/// against `q`, so an unpacked blob is always a legal configuration.
///
/// # Example
/// ```
/// use lsl_core::codec::StateBlob;
/// let blob = StateBlob::pack(&[1, 0, 1, 1], 2);
/// assert_eq!(blob.byte_len(), 1); // four Ising spins in one byte
/// assert_eq!(blob.unpack(), vec![1, 0, 1, 1]);
/// let text = blob.to_string(); // base64url fallback for text sessions
/// assert_eq!(text.parse::<StateBlob>().unwrap(), blob);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateBlob {
    n: usize,
    q: usize,
    bytes: Vec<u8>,
}

impl StateBlob {
    /// Packs a configuration over domain `[0, q)`.
    ///
    /// # Panics
    /// Panics if a spin is `≥ q`.
    pub fn pack(state: &[Spin], q: usize) -> StateBlob {
        let q = q.max(1);
        assert!(
            state.iter().all(|&s| (s as usize) < q),
            "spin out of domain [0, {q})"
        );
        let bytes = match Packing::auto_for(q) {
            Packing::Wide => state.iter().flat_map(|s| s.to_le_bytes()).collect(),
            Packing::Byte => state.iter().map(|&s| s as u8).collect(),
            // LSB-first: spin `i` is bit `i % 8` of byte `i / 8`.
            Packing::Bit => state
                .chunks(8)
                .map(|c| (0..).zip(c).fold(0u8, |b, (k, &s)| b | (s as u8) << k))
                .collect(),
        };
        StateBlob {
            n: state.len(),
            q,
            bytes,
        }
    }

    /// Rebuilds a blob from wire parts, validating the byte length and
    /// every spin against `q` — a malformed blob is a [`CodecError`],
    /// never a bad configuration.
    pub fn from_parts(n: usize, q: usize, bytes: Vec<u8>) -> Result<StateBlob, CodecError> {
        if q == 0 {
            return Err(malformed("state blob with q=0"));
        }
        let packing = Packing::auto_for(q);
        let expect = match packing {
            Packing::Wide => n.checked_mul(4).ok_or_else(|| malformed("blob overflow"))?,
            Packing::Byte => n,
            Packing::Bit => n.div_ceil(8),
        };
        if bytes.len() != expect {
            return Err(malformed(format!(
                "state blob for n={n} q={q} needs {expect} bytes, got {}",
                bytes.len()
            )));
        }
        let blob = StateBlob { n, q, bytes };
        match packing {
            Packing::Wide | Packing::Byte => {
                for i in 0..n {
                    let s = blob.spin(i);
                    if s as usize >= q {
                        return Err(malformed(format!("spin {s} out of domain [0, {q})")));
                    }
                }
            }
            Packing::Bit => {
                // Spare bits past `n` in the last byte must be zero so
                // blob equality is byte equality.
                let spare = blob.bytes.len() * 8 - n;
                if spare > 0 {
                    let last = blob.bytes[blob.bytes.len() - 1];
                    if last >> (8 - spare) != 0 {
                        return Err(malformed("nonzero spare bits in state blob"));
                    }
                }
                if q == 1 && blob.bytes.iter().any(|&b| b != 0) {
                    return Err(malformed("spin out of domain [0, 1)"));
                }
            }
        }
        Ok(blob)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Domain size the blob was packed against.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The packing width in use (derived from `q`, never stored).
    pub fn packing(&self) -> Packing {
        Packing::auto_for(self.q)
    }

    /// Packed payload size in bytes — what the binary codec ships.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw packed bytes (for `--out` files and size accounting).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The spin at vertex `i`.
    #[inline]
    fn spin(&self, i: usize) -> Spin {
        match self.packing() {
            Packing::Wide => {
                let b = &self.bytes[i * 4..i * 4 + 4];
                u32::from_le_bytes([b[0], b[1], b[2], b[3]])
            }
            Packing::Byte => self.bytes[i] as Spin,
            Packing::Bit => ((self.bytes[i >> 3] >> (i & 7)) & 1) as Spin,
        }
    }

    /// Unpacks back to the flat configuration the sampler produced.
    /// Bit-identical to the packed input (round-trip tested).
    pub fn unpack(&self) -> Vec<Spin> {
        (0..self.n).map(|i| self.spin(i)).collect()
    }
}

/// The text-codec fallback form: `n/q/<base64url>` (no padding). Also
/// what `lsl run --out` writes one-per-line in text mode.
impl fmt::Display for StateBlob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.n, self.q, b64_encode(&self.bytes))
    }
}

impl FromStr for StateBlob {
    type Err = CodecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, '/');
        let (n, q, b64) = match (parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(q), Some(b)) => (n, q, b),
            _ => return Err(malformed(format!("state blob token {s:?}"))),
        };
        let n: usize = n
            .parse()
            .map_err(|_| malformed(format!("blob vertex count {n:?}")))?;
        let q: usize = q
            .parse()
            .map_err(|_| malformed(format!("blob domain size {q:?}")))?;
        StateBlob::from_parts(n, q, b64_decode(b64)?)
    }
}

// ---------------------------------------------------------------------
// base64url (no padding) — the text-codec fallback for blob bytes
// ---------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let v = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let chars = [
            B64[(v >> 18) as usize & 63],
            B64[(v >> 12) as usize & 63],
            B64[(v >> 6) as usize & 63],
            B64[v as usize & 63],
        ];
        let keep = 1 + chunk.len(); // 2, 3, or 4 output chars
        for &c in &chars[..keep.min(4)] {
            out.push(c as char);
        }
    }
    out
}

fn b64_val(c: u8) -> Result<u32, CodecError> {
    match c {
        b'A'..=b'Z' => Ok(u32::from(c - b'A')),
        b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
        b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
        b'-' => Ok(62),
        b'_' => Ok(63),
        other => Err(malformed(format!("base64url byte 0x{other:02x}"))),
    }
}

fn b64_decode(s: &str) -> Result<Vec<u8>, CodecError> {
    let bytes = s.as_bytes();
    if bytes.len() % 4 == 1 {
        return Err(malformed("base64url length ≡ 1 (mod 4)"));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3 + 2);
    for chunk in bytes.chunks(4) {
        let mut v = 0u32;
        for &c in chunk {
            v = (v << 6) | b64_val(c)?;
        }
        v <<= 6 * (4 - chunk.len());
        out.push((v >> 16) as u8);
        if chunk.len() >= 3 {
            out.push((v >> 8) as u8);
        }
        if chunk.len() == 4 {
            out.push(v as u8);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------

pub(crate) struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("payload under 4 GiB"));
        self.0.extend_from_slice(v);
    }

    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A `0`/`1` byte.
    fn flag(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("{what} byte 0x{other:02x}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| malformed("count overflows usize"))
    }

    fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| malformed("non-UTF-8 string"))
    }
}

// ---------------------------------------------------------------------
// The frame schema
// ---------------------------------------------------------------------

/// One record of the wire schema, in both codecs: the four tables of
/// `frames!` below and the hand-written [`JobResult`] envelope.
pub(crate) trait Frame: Sized {
    /// Writes the text form (no trailing newline).
    fn write_text(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// Parses the text form.
    fn read_text(s: &str) -> Result<Self, WireError>;

    /// Appends the binary record.
    fn put(&self, e: &mut Enc);

    /// Reads one binary record.
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError>;

    /// Writes the frame under `codec` as a **single** `write_all` — a
    /// text line or a length-prefixed record — so an unbuffered socket
    /// never sees a half frame that Nagle + delayed-ACK would stall on.
    fn write_to(&self, w: &mut impl Write, codec: Codec) -> io::Result<()>
    where
        Self: fmt::Display,
    {
        match codec {
            Codec::Text => w.write_all(format!("{self}\n").as_bytes()),
            Codec::Binary => write_frame(w, &encode(self)),
        }
    }
}

fn encode(record: &impl Frame) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    record.put(&mut e);
    e.0
}

/// Decodes one record, rejecting trailing bytes.
fn decode<F: Frame>(bytes: &[u8]) -> Result<F, CodecError> {
    let mut d = Dec { buf: bytes, pos: 0 };
    let record = F::get(&mut d)?;
    if d.pos == bytes.len() {
        Ok(record)
    } else {
        Err(malformed(format!(
            "{} trailing bytes after record",
            bytes.len() - d.pos
        )))
    }
}

/// Encodes a client frame as one tagged binary record (no length
/// prefix — pair with [`write_frame`]).
pub fn encode_client(frame: &ClientFrame) -> Vec<u8> {
    encode(frame)
}

/// Decodes one client frame record, rejecting trailing bytes.
pub fn decode_client(bytes: &[u8]) -> Result<ClientFrame, CodecError> {
    decode(bytes)
}

/// Encodes a server frame as one tagged binary record.
pub fn encode_server(frame: &ServerFrame) -> Vec<u8> {
    encode(frame)
}

/// Decodes one server frame record, rejecting trailing bytes.
pub fn decode_server(bytes: &[u8]) -> Result<ServerFrame, CodecError> {
    decode(bytes)
}

/// The text side of a row being written: the keyword is out, and each
/// field opens with the row's separator and, if keyed, its `key=`.
struct Line<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    sep: char,
    next: char,
}

impl<'a, 'b> Line<'a, 'b> {
    fn open(
        f: &'a mut fmt::Formatter<'b>,
        keyword: &str,
        first: char,
        sep: char,
    ) -> Result<Self, fmt::Error> {
        f.write_str(keyword)?;
        Ok(Line {
            f,
            sep,
            next: first,
        })
    }

    fn field<K: Kind<T>, T>(mut self, v: &T, key: &str) -> Result<Self, fmt::Error> {
        K::write(v, key, &mut self)?;
        Ok(self)
    }

    /// Opens the next field (an empty `key` is an unkeyed field).
    fn key(&mut self, key: &str) -> Result<&mut fmt::Formatter<'b>, fmt::Error> {
        self.f.write_char(self.next)?;
        self.next = self.sep;
        if !key.is_empty() {
            self.f.write_str(key)?;
            self.f.write_char('=')?;
        }
        Ok(&mut *self.f)
    }
}

/// The text side of a row being read: the fields after its keyword.
struct Words<'a> {
    rest: Option<&'a str>,
    sep: char,
}

impl<'a> Words<'a> {
    /// Splits `s` into its keyword and the fields after `first`.
    fn open(s: &'a str, first: char, sep: char) -> (&'a str, Self) {
        let (keyword, rest) = match s.split_once(first) {
            Some((k, r)) => (k, Some(r)),
            None => (s, None),
        };
        (keyword, Words { rest, sep })
    }

    /// The next field, up to the separator.
    fn word(&mut self, what: &str) -> Result<&'a str, WireError> {
        let rest = self
            .rest
            .ok_or_else(|| wire_err(format!("missing {what} field")))?;
        Ok(match rest.split_once(self.sep) {
            Some((word, r)) => {
                self.rest = Some(r);
                word
            }
            None => {
                self.rest = None;
                rest
            }
        })
    }

    /// The next field's value after its expected `key=`.
    fn keyed(&mut self, key: &str) -> Result<&'a str, WireError> {
        let word = self.word(key)?;
        field(word, key)
    }

    /// Everything left, separators included.
    fn rest(&mut self, what: &str) -> Result<&'a str, WireError> {
        self.rest
            .take()
            .ok_or_else(|| wire_err(format!("missing {what} field")))
    }

    fn done(&self) -> Result<(), WireError> {
        match self.rest {
            None => Ok(()),
            Some(extra) => Err(wire_err(format!("unexpected trailing {extra:?}"))),
        }
    }
}

/// How one field crosses both codecs. The table names a kind per field;
/// `T` is the field's type.
trait Kind<T> {
    fn write(v: &T, key: &str, line: &mut Line<'_, '_>) -> fmt::Result;
    fn read(key: &str, words: &mut Words<'_>) -> Result<T, WireError>;
    fn put(v: &T, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Result<T, CodecError>;
}

/// A value with a fixed-width binary form: `u32` as 4 bytes, `u64` and
/// `usize` as 8, `f64` as its bit pattern, `bool` and [`Codec`] as one
/// byte, a [`StateBlob`] as `n`, `q` and its length-prefixed bytes.
trait Fixed: Sized {
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

impl Fixed for u32 {
    fn put(&self, e: &mut Enc) {
        e.u32(*self);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u32()
    }
}

impl Fixed for u64 {
    fn put(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u64()
    }
}

impl Fixed for usize {
    fn put(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.usize()
    }
}

impl Fixed for f64 {
    fn put(&self, e: &mut Enc) {
        e.u64(self.to_bits());
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(d.u64()?))
    }
}

impl Fixed for bool {
    fn put(&self, e: &mut Enc) {
        e.u8(u8::from(*self));
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.flag("bool")
    }
}

impl Fixed for Codec {
    fn put(&self, e: &mut Enc) {
        e.u8(match self {
            Codec::Text => 0,
            Codec::Binary => 1,
        });
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(if d.flag("codec")? {
            Codec::Binary
        } else {
            Codec::Text
        })
    }
}

impl Fixed for StateBlob {
    fn put(&self, e: &mut Enc) {
        e.u64(self.n as u64);
        e.u64(self.q as u64);
        e.bytes(&self.bytes);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.usize()?;
        let q = d.usize()?;
        let bytes = d.bytes()?.to_vec();
        StateBlob::from_parts(n, q, bytes)
    }
}

/// `key=<value>` in the value's own `Display`/`FromStr`; binary
/// [`Fixed`]. Numbers, flags, the codec, and state blobs.
enum Keyed {}

impl<T: Fixed + fmt::Display + FromStr> Kind<T> for Keyed
where
    T::Err: fmt::Display,
{
    fn write(v: &T, key: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        write!(line.key(key)?, "{v}")
    }
    fn read(key: &str, words: &mut Words<'_>) -> Result<T, WireError> {
        let value = words.keyed(key)?;
        value
            .parse()
            .map_err(|e| wire_err(format!("bad {key}={value:?}: {e}")))
    }
    fn put(v: &T, e: &mut Enc) {
        v.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<T, CodecError> {
        T::get(d)
    }
}

/// `key=<16 hex digits>`; binary `u64`. Fingerprints.
enum Hex {}

impl Kind<u64> for Hex {
    fn write(v: &u64, key: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        write!(line.key(key)?, "{v:016x}")
    }
    fn read(key: &str, words: &mut Words<'_>) -> Result<u64, WireError> {
        let value = words.keyed(key)?;
        u64::from_str_radix(value, 16).map_err(|_| wire_err(format!("bad {key}={value:?}")))
    }
    fn put(v: &u64, e: &mut Enc) {
        e.u64(*v);
    }
    fn get(d: &mut Dec<'_>) -> Result<u64, CodecError> {
        d.u64()
    }
}

/// `key=<the rest of the line>`, verbatim (spec lines contain
/// spaces); binary length-prefixed string. Must be a row's last field.
enum Rest {}

impl Kind<String> for Rest {
    fn write(v: &String, key: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        line.key(key)?.write_str(v)
    }
    fn read(key: &str, words: &mut Words<'_>) -> Result<String, WireError> {
        Ok(field(words.rest(key)?, key)?.to_string())
    }
    fn put(v: &String, e: &mut Enc) {
        e.str(v);
    }
    fn get(d: &mut Dec<'_>) -> Result<String, CodecError> {
        Ok(d.str()?.to_string())
    }
}

/// `key=<percent-escaped token>` ([`escape`]); binary
/// length-prefixed string. Free-form messages.
enum Escaped {}

impl Kind<String> for Escaped {
    fn write(v: &String, key: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        line.key(key)?.write_str(&escape(v))
    }
    fn read(key: &str, words: &mut Words<'_>) -> Result<String, WireError> {
        unescape(words.keyed(key)?)
    }
    fn put(v: &String, e: &mut Enc) {
        e.str(v);
    }
    fn get(d: &mut Dec<'_>) -> Result<String, CodecError> {
        Ok(d.str()?.to_string())
    }
}

/// `key=<n>` or `key=-`; binary flag byte, then the `u64` if set.
enum OptId {}

impl Kind<Option<u64>> for OptId {
    fn write(v: &Option<u64>, key: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        let f = line.key(key)?;
        match v {
            Some(id) => write!(f, "{id}"),
            None => f.write_char('-'),
        }
    }
    fn read(key: &str, words: &mut Words<'_>) -> Result<Option<u64>, WireError> {
        match words.keyed(key)? {
            "-" => Ok(None),
            n => n
                .parse()
                .map(Some)
                .map_err(|_| wire_err(format!("bad {key}={n:?}"))),
        }
    }
    fn put(v: &Option<u64>, e: &mut Enc) {
        e.u8(u8::from(v.is_some()));
        if let Some(id) = v {
            e.u64(*id);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Option<u64>, CodecError> {
        Ok(if d.flag("id")? { Some(d.u64()?) } else { None })
    }
}

/// `key=<blob>;<blob>;…` (base64url tokens never contain `;`, `,`,
/// `=` or `:`); binary `u32` count, then each blob.
enum Blobs {}

impl Kind<Vec<StateBlob>> for Blobs {
    fn write(v: &Vec<StateBlob>, key: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        let f = line.key(key)?;
        for (i, blob) in v.iter().enumerate() {
            if i > 0 {
                f.write_char(';')?;
            }
            write!(f, "{blob}")?;
        }
        Ok(())
    }
    fn read(key: &str, words: &mut Words<'_>) -> Result<Vec<StateBlob>, WireError> {
        words
            .keyed(key)?
            .split(';')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().map_err(|e: CodecError| wire_err(e.to_string())))
            .collect()
    }
    fn put(v: &Vec<StateBlob>, e: &mut Enc) {
        e.u32(u32::try_from(v.len()).expect("replica count fits u32"));
        for blob in v {
            blob.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Vec<StateBlob>, CodecError> {
        let count = d.u32()? as usize;
        let mut blobs = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            blobs.push(StateBlob::get(d)?);
        }
        Ok(blobs)
    }
}

/// An optional last field: `key=<a>/<b>/<c>/<d>` when present, nothing
/// (not even the separator) when absent; binary flag byte, then four
/// `u64`s if set. The sharded backends' [`CommSummary`].
enum Comm {}

impl Kind<Option<CommSummary>> for Comm {
    fn write(v: &Option<CommSummary>, key: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        match v {
            Some(c) => write!(
                line.key(key)?,
                "{}/{}/{}/{}",
                c.rounds_seen,
                c.total_messages,
                c.total_bytes,
                c.total_changed
            ),
            None => Ok(()),
        }
    }
    fn read(key: &str, words: &mut Words<'_>) -> Result<Option<CommSummary>, WireError> {
        if words.rest.is_none() {
            return Ok(None);
        }
        let value = words.keyed(key)?;
        let counts = value
            .split('/')
            .map(str::parse)
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|_| wire_err(format!("bad {key}={value:?}")))?;
        match counts[..] {
            [rounds_seen, total_messages, total_bytes, total_changed] => Ok(Some(CommSummary {
                rounds_seen,
                total_messages,
                total_bytes,
                total_changed,
            })),
            _ => Err(wire_err(format!("{key} has 4 counts: {value:?}"))),
        }
    }
    fn put(v: &Option<CommSummary>, e: &mut Enc) {
        e.u8(u8::from(v.is_some()));
        if let Some(c) = v {
            for count in [
                c.rounds_seen,
                c.total_messages,
                c.total_bytes,
                c.total_changed,
            ] {
                e.u64(count);
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Option<CommSummary>, CodecError> {
        if !d.flag("comm")? {
            return Ok(None);
        }
        Ok(Some(CommSummary {
            rounds_seen: d.u64()?,
            total_messages: d.u64()?,
            total_bytes: d.u64()?,
            total_changed: d.u64()?,
        }))
    }
}

/// An unkeyed nested record running to the end of the line (an
/// event's body, a finished job's result); binary: the record inline.
enum Nested {}

impl<T: Frame> Kind<T> for Nested {
    fn write(v: &T, _: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        v.write_text(line.key("")?)
    }
    fn read(_: &str, words: &mut Words<'_>) -> Result<T, WireError> {
        T::read_text(words.rest("record")?)
    }
    fn put(v: &T, e: &mut Enc) {
        v.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<T, CodecError> {
        T::get(d)
    }
}

/// An unkeyed single token in the typed-error grammar of [`proto`]
/// (a reject reason, a spec error); binary: the same token as a
/// length-prefixed string, so both codecs share one invertible grammar.
enum Token {}

/// The types that cross the wire as one [`Token`].
trait Tokenized: Sized {
    fn token(&self) -> String;
    fn from_token(token: &str) -> Result<Self, WireError>;
}

impl Tokenized for RejectReason {
    fn token(&self) -> String {
        proto::encode_reject_reason(self)
    }
    fn from_token(token: &str) -> Result<Self, WireError> {
        proto::decode_reject_reason(token)
    }
}

impl Tokenized for SpecError {
    fn token(&self) -> String {
        proto::encode_spec_error(self)
    }
    fn from_token(token: &str) -> Result<Self, WireError> {
        proto::decode_spec_error(token)
    }
}

impl<T: Tokenized> Kind<T> for Token {
    fn write(v: &T, _: &str, line: &mut Line<'_, '_>) -> fmt::Result {
        line.key("")?.write_str(&v.token())
    }
    fn read(_: &str, words: &mut Words<'_>) -> Result<T, WireError> {
        T::from_token(words.word("token")?)
    }
    fn put(v: &T, e: &mut Enc) {
        e.str(&v.token());
    }
    fn get(d: &mut Dec<'_>) -> Result<T, CodecError> {
        T::from_token(d.str()?).map_err(|e| malformed(e.to_string()))
    }
}

/// A field's text key: its name, unless the row overrides it.
macro_rules! key {
    ($field:tt) => {
        stringify!($field)
    };
    ($field:tt $key:literal) => {
        $key
    };
}

/// A field's binding in a row's pattern: its name, or the `as` name
/// a tuple variant's positional field gives.
macro_rules! bind {
    ($field:tt) => {
        $field
    };
    ($field:tt $bind:ident) => {
        $bind
    };
}

/// Generates [`Frame`] for each table: one row per variant gives its
/// binary tag byte, its text keyword, and its fields in wire order,
/// each with its [`Kind`] (and a text key when it differs from the
/// field name). Text rows print as the keyword, the table's first
/// separator, then the fields joined by its field separator; binary
/// rows as the tag byte, then the fields. The generated matches are
/// exhaustive, so a variant without a row does not compile.
macro_rules! frames {
    ($(
        $ty:ident ($what:literal, $first:literal, $sep:literal) {
            $( $tag:literal $keyword:literal $var:ident {
                $( $field:tt $(as $bind:ident)? : $kind:ty $(= $key:literal)? ),* $(,)?
            } ),* $(,)?
        }
    )*) => {$(
        impl Frame for $ty {
            fn write_text(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $( $ty::$var { $( $field: bind!($field $($bind)?) ),* } => {
                        Line::open(f, $keyword, $first, $sep)?
                            $( .field::<$kind, _>(
                                bind!($field $($bind)?),
                                key!($field $($key)?),
                            )? )*;
                        Ok(())
                    } )*
                }
            }

            fn read_text(s: &str) -> Result<Self, WireError> {
                let (keyword, mut words) = Words::open(s, $first, $sep);
                let record = match keyword {
                    $( $keyword => $ty::$var {
                        $( $field: <$kind as Kind<_>>::read(
                            key!($field $($key)?),
                            &mut words,
                        )? ),*
                    }, )*
                    other => {
                        return Err(wire_err(format!(concat!("unknown ", $what, " {:?}"), other)))
                    }
                };
                words.done()?;
                Ok(record)
            }

            fn put(&self, e: &mut Enc) {
                match self {
                    $( $ty::$var { $( $field: bind!($field $($bind)?) ),* } => {
                        e.u8($tag);
                        $( <$kind as Kind<_>>::put(bind!($field $($bind)?), e); )*
                    } )*
                }
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(match d.u8()? {
                    $( $tag => $ty::$var { $( $field: <$kind as Kind<_>>::get(d)? ),* }, )*
                    tag => {
                        return Err(malformed(format!(concat!($what, " tag 0x{:02x}"), tag)))
                    }
                })
            }
        }
    )*};
}

frames! {
    ClientFrame ("client frame", ' ', ' ') {
        0x01 "submit" Submit { id: Keyed, spec: Rest },
        0x02 "cancel" Cancel { id: Keyed },
        0x03 "shutdown" Shutdown {},
        0x04 "hello" Hello { codec: Keyed },
        0x05 "ping" Ping { nonce: Keyed },
        0x06 "shard-init" ShardInit { id: Keyed, shard: Keyed, of: Keyed, spec: Rest },
        0x07 "shard-sync" ShardSync { id: Keyed, round: Keyed, blob: Keyed },
    }

    ServerFrame ("server frame", ' ', ' ') {
        0x81 "submitted" Submitted { id: Keyed, jobs: Keyed },
        0x82 "event" Event { id: Keyed, index: Keyed, event: Nested },
        0x83 "error" Error { id: OptId, message: Escaped },
        0x84 "hello" Hello { codec: Keyed },
        0x85 "pong" Pong { nonce: Keyed },
        0x86 "shard-sync" ShardSync { id: Keyed, round: Keyed, blob: Keyed },
        0x87 "shard-done" ShardDone { id: Keyed, rounds: Keyed, blob: Keyed },
    }

    JobEvent ("job event", ' ', ' ') {
        1 "accepted" Accepted {},
        2 "rejected" Rejected { reason: Token },
        3 "started" Started {},
        4 "progress" Progress { round: Keyed, of: Keyed },
        5 "finished" Finished { 0 as result: Nested },
        6 "failed" Failed { 0 as error: Token },
        7 "cancelled" Cancelled {},
        8 "state" State { round: Keyed, blob: Keyed },
    }

    // Outputs nest as one token of a result line: `kind:` then
    // comma-separated fields.
    JobOutput ("job output", ':', ',') {
        1 "run" Run { rounds: Keyed, n: Keyed, feasible: Keyed, fingerprint: Hex, comm: Comm },
        2 "distribution" Distribution { replicas: Keyed, support: Keyed },
        3 "tv" Tv { rounds: Keyed, replicas: Keyed, tv: Keyed },
        4 "coalescence" Coalescence {
            trials: Keyed,
            mean_rounds: Keyed = "mean-rounds",
            std_error: Keyed = "std-error",
            timeouts: Keyed,
        },
        5 "sample" Sample { rounds: Keyed, states: Blobs },
        6 "stream" Stream {
            rounds: Keyed,
            every: Keyed,
            n: Keyed,
            states: Keyed,
            fingerprint: Hex,
        },
    }
}

/// The result envelope stays hand-written: the text form ends with the
/// spec (it runs to the end of the line) while the binary form leads
/// with it, and both layouts are frozen. Text: `elapsed=<secs>
/// output=<output> spec=<canonical spec line>`.
impl Frame for JobResult {
    fn write_text(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elapsed={} output=", self.elapsed_secs)?;
        self.output.write_text(f)?;
        write!(f, " spec={}", self.spec)
    }

    fn read_text(s: &str) -> Result<Self, WireError> {
        let mut words = Words {
            rest: Some(s),
            sep: ' ',
        };
        Ok(JobResult {
            elapsed_secs: <Keyed as Kind<f64>>::read("elapsed", &mut words)?,
            output: JobOutput::read_text(words.keyed("output")?)?,
            spec: Rest::read("spec", &mut words)?,
        })
    }

    fn put(&self, e: &mut Enc) {
        e.str(&self.spec);
        self.elapsed_secs.put(e);
        self.output.put(e);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(JobResult {
            spec: d.str()?.to_string(),
            elapsed_secs: f64::get(d)?,
            output: JobOutput::get(d)?,
        })
    }
}

/// The text form of every record that has one of its own (an output
/// prints only inside its result line).
macro_rules! text_form {
    ($($ty:ty),*) => {$(
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.write_text(f)
            }
        }

        impl FromStr for $ty {
            type Err = WireError;

            fn from_str(s: &str) -> Result<Self, WireError> {
                Self::read_text(s)
            }
        }
    )*};
}

text_form!(ClientFrame, ServerFrame, JobEvent, JobResult);

// ---------------------------------------------------------------------
// The frame layer
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame: a little-endian `u32` payload
/// length, then the payload — as a **single** `write_all`, so an
/// unbuffered socket sees one packet, not a 4-byte runt that Nagle +
/// delayed-ACK would stall on. Errors if the payload exceeds
/// [`MAX_FRAME`] — encode-side enforcement of the same cap decoding
/// applies.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            CodecError::Oversize {
                len: payload.len() as u64,
            }
            .to_string(),
        ));
    }
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(payload);
    w.write_all(&framed)
}

/// Incremental frame reassembly for a read loop, in either codec: feed
/// whatever bytes arrive with [`FrameBuffer::extend`], pull complete
/// binary payloads with [`FrameBuffer::next_frame`] or text lines with
/// [`FrameBuffer::next_line`]. One buffer serves both, so bytes
/// buffered behind a `hello` are cut under the codec it switched to.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// `buf[..scanned]` holds no newline: the next line scan resumes
    /// here instead of rescanning the partial line.
    scanned: usize,
    /// Dropping the rest of an over-cap line, up to its newline.
    discarding: bool,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete frames not yet pulled plus
    /// any partial tail).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pops the next complete frame payload, `Ok(None)` if more bytes
    /// are needed. An over-cap length prefix returns
    /// [`CodecError::Oversize`] after consuming only the 4 header
    /// bytes, so the session can answer a typed error and resume
    /// parsing at the next byte.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        self.scanned = 0;
        if len > MAX_FRAME {
            self.buf.drain(..4);
            return Err(CodecError::Oversize { len: len as u64 });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// Cuts the next complete frame under `codec` and decodes it,
    /// `Ok(None)` if more bytes are needed. Blank text lines are
    /// skipped. A bad frame is consumed before its error returns, so
    /// the next call resumes at the frame after it.
    pub(crate) fn cut<F: Frame>(&mut self, codec: Codec) -> Result<Option<F>, FrameError> {
        loop {
            let next = match codec {
                Codec::Text => self.next_line(),
                Codec::Binary => self.next_frame(),
            };
            let Some(payload) = next.map_err(FrameError::Codec)? else {
                return Ok(None);
            };
            if codec == Codec::Binary {
                return decode(&payload).map(Some).map_err(FrameError::Codec);
            }
            let line = std::str::from_utf8(&payload)
                .map_err(|_| FrameError::Wire(wire_err("not UTF-8")))?
                .trim();
            if !line.is_empty() {
                return F::read_text(line).map(Some).map_err(FrameError::Wire);
            }
        }
    }

    /// Pops the next complete text line (without its `\n`), `Ok(None)`
    /// if more bytes are needed. A line longer than [`MAX_FRAME`]
    /// returns [`CodecError::Oversize`] once; the rest of it is dropped
    /// and parsing resumes after its newline, so a peer that never
    /// sends one cannot make the buffer grow past the cap.
    pub fn next_line(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        loop {
            let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
                let len = self.buf.len();
                if self.discarding || len > MAX_FRAME {
                    self.buf.clear();
                    self.scanned = 0;
                    if !std::mem::replace(&mut self.discarding, true) {
                        return Err(CodecError::Oversize { len: len as u64 });
                    }
                } else {
                    self.scanned = len;
                }
                return Ok(None);
            };
            let mut line: Vec<u8> = self.buf.drain(..=self.scanned + i).collect();
            line.pop();
            self.scanned = 0;
            if std::mem::take(&mut self.discarding) {
                continue;
            }
            if line.len() > MAX_FRAME {
                return Err(CodecError::Oversize {
                    len: line.len() as u64,
                });
            }
            return Ok(Some(line));
        }
    }
}

/// Why [`FrameBuffer::cut`] could not produce a frame: the framing or
/// a binary record failed, or a text line did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FrameError {
    Codec(CodecError),
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Codec(e) => e.fmt(f),
            FrameError::Wire(e) => e.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_packs_at_domain_width() {
        // Ising: bits.
        let ising = StateBlob::pack(&[1, 0, 1, 1, 0, 0, 0, 1, 1], 2);
        assert_eq!(ising.packing(), Packing::Bit);
        assert_eq!(ising.byte_len(), 2);
        assert_eq!(ising.unpack(), vec![1, 0, 1, 1, 0, 0, 0, 1, 1]);
        // Colorings: bytes.
        let col = StateBlob::pack(&[4, 0, 255], 256);
        assert_eq!(col.packing(), Packing::Byte);
        assert_eq!(col.byte_len(), 3);
        assert_eq!(col.unpack(), vec![4, 0, 255]);
        // Huge domains: u32 lanes.
        let wide = StateBlob::pack(&[300, 0], 1000);
        assert_eq!(wide.packing(), Packing::Wide);
        assert_eq!(wide.byte_len(), 8);
        assert_eq!(wide.unpack(), vec![300, 0]);
    }

    #[test]
    fn blob_token_round_trips() {
        for (state, q) in [
            (vec![], 2),
            (vec![0], 1),
            (vec![1, 0, 1], 2),
            (vec![9, 3, 0, 7], 10),
            (vec![70000, 5], 100_000),
        ] {
            let blob = StateBlob::pack(&state, q);
            let token = blob.to_string();
            let back: StateBlob = token.parse().expect("token parses");
            assert_eq!(back, blob, "token {token}");
            assert_eq!(back.unpack(), state);
        }
    }

    #[test]
    fn blob_rejects_bad_parts() {
        assert!(StateBlob::from_parts(4, 0, vec![]).is_err(), "q=0");
        assert!(StateBlob::from_parts(4, 3, vec![1, 2]).is_err(), "short");
        assert!(
            StateBlob::from_parts(2, 3, vec![1, 3]).is_err(),
            "spin ≥ q in byte lanes"
        );
        assert!(
            StateBlob::from_parts(3, 2, vec![0b1111]).is_err(),
            "nonzero spare bits"
        );
        assert!(
            StateBlob::from_parts(8, 1, vec![1]).is_err(),
            "spin ≥ q in bit lanes"
        );
        assert!("2/2".parse::<StateBlob>().is_err(), "missing payload");
        assert!("x/2/AA".parse::<StateBlob>().is_err(), "bad count");
        assert!("8/2/A%".parse::<StateBlob>().is_err(), "bad base64url");
    }

    #[test]
    fn base64url_round_trips() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = b64_encode(&bytes);
            assert!(
                enc.bytes()
                    .all(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_'),
                "alphabet stays URL-safe"
            );
            assert_eq!(b64_decode(&enc).unwrap(), bytes, "len {len}");
        }
        assert!(b64_decode("AAAAA").is_err(), "length 5 is impossible");
    }

    #[test]
    fn frame_buffer_reassembles_and_resyncs() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second").unwrap();

        let mut fb = FrameBuffer::new();
        // Feed byte by byte: frames reassemble across arbitrary splits.
        let mut got = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![b"first".to_vec(), Vec::new(), b"second".to_vec()]);

        // An over-cap prefix errors once, consumes 4 bytes, and the
        // next well-formed frame still parses.
        fb.extend(&(u32::MAX).to_le_bytes());
        let mut after = Vec::new();
        write_frame(&mut after, b"ok").unwrap();
        fb.extend(&after);
        assert_eq!(
            fb.next_frame(),
            Err(CodecError::Oversize {
                len: u64::from(u32::MAX)
            })
        );
        assert_eq!(fb.next_frame().unwrap(), Some(b"ok".to_vec()));
    }

    #[test]
    fn frame_buffer_cuts_lines_across_codecs_and_resyncs_over_cap() {
        let mut fb = FrameBuffer::new();
        // Lines reassemble across arbitrary splits; a partial tail waits.
        for &b in b"ping nonce=1\nhel" {
            fb.extend(&[b]);
        }
        assert_eq!(fb.next_line().unwrap(), Some(b"ping nonce=1".to_vec()));
        assert_eq!(fb.next_line().unwrap(), None);
        // Bytes behind a switching line are cut under the new framing.
        let mut wire = b"lo codec=binary\n".to_vec();
        write_frame(&mut wire, b"bin").unwrap();
        fb.extend(&wire);
        let hello = fb.next_line().unwrap();
        assert_eq!(hello, Some(b"hello codec=binary".to_vec()));
        assert_eq!(fb.next_frame().unwrap(), Some(b"bin".to_vec()));
        assert!(fb.is_empty());

        // An over-cap line errors once, nothing of it is kept, and the
        // next line parses.
        fb.extend(&vec![b'x'; MAX_FRAME + 1]);
        assert_eq!(
            fb.next_line(),
            Err(CodecError::Oversize {
                len: MAX_FRAME as u64 + 1
            })
        );
        assert!(fb.is_empty());
        fb.extend(b"still the same line\nnext\n");
        assert_eq!(fb.next_line().unwrap(), Some(b"next".to_vec()));
        assert_eq!(fb.next_line().unwrap(), None);
    }

    #[test]
    fn oversize_payload_refuses_to_encode() {
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
        assert!(sink.is_empty(), "nothing written on refusal");
    }

    #[test]
    fn truncated_records_are_truncated_errors() {
        let frame = ClientFrame::Submit {
            id: 7,
            spec: "graph=cycle:8 model=ising:beta=0.2".into(),
        };
        let bytes = encode_client(&frame);
        for cut in 0..bytes.len() {
            let err = decode_client(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Malformed(_)),
                "cut {cut}: {err}"
            );
        }
        assert_eq!(decode_client(&bytes).unwrap(), frame);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_client(&ClientFrame::Shutdown);
        bytes.push(0);
        assert!(matches!(
            decode_client(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn codec_names_round_trip() {
        for c in [Codec::Text, Codec::Binary] {
            assert_eq!(c.to_string().parse::<Codec>().unwrap(), c);
        }
        assert!("gzip".parse::<Codec>().is_err());
    }
}
