//! RESP2 — the REdis Serialization Protocol.
//!
//! SKV keeps Redis's wire protocol (clients are unchanged); commands arrive
//! as arrays of bulk strings and replies use the full RESP2 type set. The
//! decoder is incremental: it consumes complete frames from a byte buffer
//! and reports how many bytes each frame used, so a transport can deliver
//! arbitrary fragments.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;

/// A RESP2 value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resp {
    /// `+OK\r\n` — borrowed for the fixed status words (`OK`, `PONG`,
    /// type names), so the commonest reply of all costs no allocation.
    Simple(Cow<'static, str>),
    /// `-ERR ...\r\n`
    Error(String),
    /// `:42\r\n`
    Int(i64),
    /// `$5\r\nhello\r\n`
    Bulk(Vec<u8>),
    /// `$-1\r\n`
    NullBulk,
    /// `*N\r\n...`
    Array(Vec<Resp>),
    /// `*-1\r\n`
    NullArray,
}

/// Decoder outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A complete frame and the bytes it consumed.
    Frame(Resp, usize),
    /// More bytes are needed.
    Incomplete,
    /// The input violates the protocol.
    ProtocolError(String),
}

impl Resp {
    /// The canonical `+OK` reply.
    pub fn ok() -> Resp {
        Resp::Simple(Cow::Borrowed("OK"))
    }

    /// An `-ERR`-prefixed error reply.
    pub fn err(msg: impl fmt::Display) -> Resp {
        Resp::Error(format!("ERR {msg}"))
    }

    /// The `WRONGTYPE` error Redis returns on type mismatches.
    pub fn wrongtype() -> Resp {
        Resp::Error("WRONGTYPE Operation against a key holding the wrong kind of value".into())
    }

    /// Build a command frame: an array of bulk strings.
    pub fn command<I, B>(parts: I) -> Resp
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        Resp::Array(
            parts
                .into_iter()
                .map(|p| Resp::Bulk(p.as_ref().to_vec()))
                .collect(),
        )
    }

    /// True for `-...` replies.
    pub fn is_error(&self) -> bool {
        matches!(self, Resp::Error(_))
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_hint());
        self.encode_into(&mut out);
        out
    }

    fn encoded_len_hint(&self) -> usize {
        match self {
            Resp::Bulk(b) => b.len() + 16,
            Resp::Array(items) => items.iter().map(Resp::encoded_len_hint).sum::<usize>() + 16,
            _ => 32,
        }
    }

    /// Serialize, appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Resp::Simple(s) => {
                out.push(b'+');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Resp::Error(s) => {
                out.push(b'-');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Resp::Int(v) => {
                out.push(b':');
                push_decimal(out, v.unsigned_abs(), *v < 0);
                out.extend_from_slice(b"\r\n");
            }
            Resp::Bulk(b) => write_bulk(out, b),
            Resp::NullBulk => out.extend_from_slice(b"$-1\r\n"),
            Resp::Array(items) => {
                write_array_len(out, items.len());
                for item in items {
                    item.encode_into(out);
                }
            }
            Resp::NullArray => out.extend_from_slice(b"*-1\r\n"),
        }
    }

    /// Decode one frame from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Decoded {
        match parse(buf) {
            Ok(Some((v, used))) => Decoded::Frame(v, used),
            Ok(None) => Decoded::Incomplete,
            Err(e) => Decoded::ProtocolError(e),
        }
    }

    /// Interpret this value as a command (array of bulk strings), returning
    /// the argument vector.
    pub fn into_command_args(self) -> Result<Vec<Vec<u8>>, String> {
        let Resp::Array(items) = self else {
            return Err("expected array".into());
        };
        if items.is_empty() {
            return Err("empty command".into());
        }
        items
            .into_iter()
            .map(|item| match item {
                Resp::Bulk(b) => Ok(b),
                other => Err(format!("expected bulk string, got {other:?}")),
            })
            .collect()
    }
}

/// Append `magnitude` in decimal, with a leading `-` when `negative`.
/// Every length prefix and integer reply goes through here, so none of
/// them builds a `String` first.
fn push_decimal(out: &mut Vec<u8>, mut magnitude: u64, negative: bool) {
    // u64::MAX has 20 digits; one more for the sign.
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append the array header `*N\r\n` — with [`write_bulk`], all a sender
/// needs to frame a command straight into its wire buffer.
pub fn write_array_len(out: &mut Vec<u8>, len: usize) {
    out.push(b'*');
    push_decimal(out, len as u64, false);
    out.extend_from_slice(b"\r\n");
}

/// Append `bytes` as a bulk string, `$N\r\n<bytes>\r\n`.
pub fn write_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    out.push(b'$');
    push_decimal(out, bytes.len() as u64, false);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

// ---------------------------------------------------------------------------
// borrowed command parsing
// ---------------------------------------------------------------------------

/// Arguments a command may carry before [`Args`] spills to the heap.
/// SET/GET/MSET-of-three and every fixed-arity command fit; only long
/// variadic commands (a 5-key MSET, a wide SADD) pay one allocation.
pub const INLINE_ARGS: usize = 8;

/// The arguments of one command, borrowed from the bytes they arrived in.
///
/// Dereferences to `&[&[u8]]`, which is what [`crate::engine::Engine`] and
/// the command handlers take: a node parses a frame once, in place, and
/// nothing is copied until the store keeps a value.
#[derive(Debug)]
pub struct Args<'a> {
    inline: [&'a [u8]; INLINE_ARGS],
    /// Arguments held in `inline`; unused once `spill` is.
    len: usize,
    /// Every argument, once there are more than [`INLINE_ARGS`].
    spill: Vec<&'a [u8]>,
}

impl<'a> Args<'a> {
    /// No arguments yet.
    pub fn new() -> Self {
        Args {
            inline: [&[]; INLINE_ARGS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Append one argument.
    pub fn push(&mut self, arg: &'a [u8]) {
        if !self.spill.is_empty() {
            self.spill.push(arg);
        } else if let Some(slot) = self.inline.get_mut(self.len) {
            *slot = arg;
            self.len += 1;
        } else {
            self.spill.reserve(2 * INLINE_ARGS);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(arg);
        }
    }

    /// The arguments, command name first.
    pub fn as_slice(&self) -> &[&'a [u8]] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl Default for Args<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Deref for Args<'a> {
    type Target = [&'a [u8]];
    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl<'a, A: AsRef<[u8]> + 'a> FromIterator<&'a A> for Args<'a> {
    /// Borrow an owned argument list (`&[Vec<u8>]`, `&[&str]`, …).
    fn from_iter<I: IntoIterator<Item = &'a A>>(iter: I) -> Self {
        let mut args = Args::new();
        for arg in iter {
            args.push(arg.as_ref());
        }
        args
    }
}

/// Outcome of [`parse_command`]. The four cases are exactly the outcomes of
/// [`Resp::decode`] followed by [`Resp::into_command_args`], messages
/// included, so a node can answer a bad frame the way it always has.
#[derive(Debug)]
pub enum ParsedCommand<'a> {
    /// A complete command and the bytes it consumed.
    Command(Args<'a>, usize),
    /// A complete frame of that many bytes which is not a command (not a
    /// non-empty array of bulk strings), and why.
    NotCommand(String, usize),
    /// More bytes are needed.
    Incomplete,
    /// The input violates the protocol.
    ProtocolError(String),
}

/// Parse one command frame from the front of `buf` without copying: the
/// arguments are slices of `buf`.
pub fn parse_command(buf: &[u8]) -> ParsedCommand<'_> {
    if let Some((args, used)) = parse_bulk_array(buf) {
        return ParsedCommand::Command(args, used);
    }
    // Truncated, malformed, or not a command: rare, so let the general
    // decoder give the verdict (and its message) it always gave.
    match Resp::decode(buf) {
        Decoded::Frame(v, used) => {
            // `parse_bulk_array` takes every non-empty array of bulk
            // strings, so this frame is not one and the conversion fails.
            let why = v.into_command_args().err().unwrap_or_default();
            ParsedCommand::NotCommand(why, used)
        }
        Decoded::Incomplete => ParsedCommand::Incomplete,
        Decoded::ProtocolError(e) => ParsedCommand::ProtocolError(e),
    }
}

/// The fast path of [`parse_command`]: a complete, well-formed, non-empty
/// array of non-null bulk strings, or `None` for anything else.
fn parse_bulk_array(buf: &[u8]) -> Option<(Args<'_>, usize)> {
    if *buf.first()? != b'*' {
        return None;
    }
    let (count, mut at) = parse_int_line(buf, 1).ok()??;
    if count <= 0 {
        return None;
    }
    let mut args = Args::new();
    for _ in 0..count {
        if *buf.get(at)? != b'$' {
            return None;
        }
        let (len, start) = parse_int_line(buf, at + 1).ok()??;
        let end = start.checked_add(usize::try_from(len).ok()?)?;
        if buf.get(end..end.checked_add(2)?)? != b"\r\n" {
            return None;
        }
        args.push(buf.get(start..end)?);
        at = end + 2;
    }
    Some((args, at))
}

// ---------------------------------------------------------------------------
// general decoding
// ---------------------------------------------------------------------------

type ParseResult = Result<Option<(Resp, usize)>, String>;

/// Deepest array nesting the decoder follows. Replies nest two or three
/// levels; a frame of nothing but `*1\r\n` headers would otherwise recurse
/// once per header and overflow the stack.
const MAX_DEPTH: usize = 32;

/// Find `\r\n` starting at `from`; return the index of `\r`.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(2)
        .position(|w| w == b"\r\n")
        .map(|p| p + from)
}

fn parse_line(buf: &[u8], from: usize) -> Option<(&[u8], usize)> {
    let cr = find_crlf(buf, from)?;
    Some((buf.get(from..cr)?, cr + 2))
}

fn parse_int_line(buf: &[u8], from: usize) -> Result<Option<(i64, usize)>, String> {
    let Some((line, next)) = parse_line(buf, from) else {
        return Ok(None);
    };
    let s = std::str::from_utf8(line).map_err(|_| "non-utf8 length".to_string())?;
    let v: i64 = s.parse().map_err(|_| format!("bad integer: {s:?}"))?;
    Ok(Some((v, next)))
}

fn parse_at(buf: &[u8], at: usize, depth: usize) -> ParseResult {
    let Some(&type_byte) = buf.get(at) else {
        return Ok(None);
    };
    match type_byte {
        b'+' => Ok(parse_line(buf, at + 1).map(|(line, next)| {
            (
                Resp::Simple(String::from_utf8_lossy(line).into_owned().into()),
                next,
            )
        })),
        b'-' => Ok(parse_line(buf, at + 1).map(|(line, next)| {
            (
                Resp::Error(String::from_utf8_lossy(line).into_owned()),
                next,
            )
        })),
        b':' => Ok(parse_int_line(buf, at + 1)?.map(|(v, next)| (Resp::Int(v), next))),
        b'$' => {
            let Some((len, next)) = parse_int_line(buf, at + 1)? else {
                return Ok(None);
            };
            if len == -1 {
                return Ok(Some((Resp::NullBulk, next)));
            }
            // A length that cannot be a buffer offset is as bad as a
            // negative one (and must not overflow the arithmetic below).
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| next.checked_add(len))
                .filter(|end| end.checked_add(2).is_some())
                .ok_or_else(|| format!("bad bulk length {len}"))?;
            let Some(terminator) = buf.get(end..end + 2) else {
                return Ok(None);
            };
            if terminator != b"\r\n" {
                return Err("bulk string not CRLF-terminated".into());
            }
            Ok(Some((Resp::Bulk(buf[next..end].to_vec()), end + 2)))
        }
        b'*' => {
            let Some((n, mut next)) = parse_int_line(buf, at + 1)? else {
                return Ok(None);
            };
            if n == -1 {
                return Ok(Some((Resp::NullArray, next)));
            }
            if n < 0 {
                return Err(format!("bad array length {n}"));
            }
            if depth >= MAX_DEPTH {
                return Err("array nesting too deep".into());
            }
            // The claimed count is the sender's; reserve no more than the
            // bytes present could hold (an element is at least 3 bytes).
            let claimed = usize::try_from(n).unwrap_or(usize::MAX);
            let mut items = Vec::with_capacity(claimed.min((buf.len() - next) / 3));
            for _ in 0..n {
                match parse_at(buf, next, depth + 1)? {
                    Some((item, after)) => {
                        items.push(item);
                        next = after;
                    }
                    None => return Ok(None),
                }
            }
            Ok(Some((Resp::Array(items), next)))
        }
        other => Err(format!("unknown type byte {:?}", other as char)),
    }
}

fn parse(buf: &[u8]) -> ParseResult {
    parse_at(buf, 0, 0)
}

/// A stateful frame assembler over a byte stream.
///
/// Feed arbitrary fragments with [`RespStream::feed`]; pull complete frames
/// with [`RespStream::next_frame`].
#[derive(Debug, Default)]
pub struct RespStream {
    buf: Vec<u8>,
    /// consumed prefix length (compacted lazily)
    read: usize,
}

impl RespStream {
    /// Create an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pull the next complete frame, if any.
    ///
    /// # Errors
    /// Returns the protocol error message if the stream is corrupt; the
    /// caller should drop the connection, as Redis does.
    pub fn next_frame(&mut self) -> Result<Option<Resp>, String> {
        match Resp::decode(&self.buf[self.read..]) {
            Decoded::Frame(v, used) => {
                self.read += used;
                // Compact once half the buffer is dead space.
                if self.read > 4096 && self.read * 2 > self.buf.len() {
                    self.buf.drain(..self.read);
                    self.read = 0;
                }
                Ok(Some(v))
            }
            Decoded::Incomplete => Ok(None),
            Decoded::ProtocolError(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Resp) {
        let bytes = v.encode();
        match Resp::decode(&bytes) {
            Decoded::Frame(out, used) => {
                assert_eq!(&out, v);
                assert_eq!(used, bytes.len());
            }
            other => panic!("decode failed: {other:?}"),
        }
    }

    #[test]
    fn roundtrips_all_types() {
        roundtrip(&Resp::ok());
        roundtrip(&Resp::err("something broke"));
        roundtrip(&Resp::Int(-42));
        roundtrip(&Resp::Int(i64::MAX));
        roundtrip(&Resp::Bulk(b"hello\r\nworld".to_vec()));
        roundtrip(&Resp::Bulk(Vec::new()));
        roundtrip(&Resp::NullBulk);
        roundtrip(&Resp::NullArray);
        roundtrip(&Resp::Array(vec![]));
        roundtrip(&Resp::Array(vec![
            Resp::Bulk(b"SET".to_vec()),
            Resp::Bulk(b"k".to_vec()),
            Resp::Bulk(vec![0, 1, 2, 255]),
            Resp::Array(vec![Resp::Int(7), Resp::NullBulk]),
        ]));
    }

    #[test]
    fn known_wire_encodings() {
        assert_eq!(Resp::ok().encode(), b"+OK\r\n");
        assert_eq!(Resp::Int(42).encode(), b":42\r\n");
        assert_eq!(Resp::Bulk(b"hi".to_vec()).encode(), b"$2\r\nhi\r\n");
        assert_eq!(Resp::NullBulk.encode(), b"$-1\r\n");
        assert_eq!(
            Resp::command(["GET", "key"]).encode(),
            b"*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n"
        );
    }

    #[test]
    fn incomplete_frames_wait() {
        let full = Resp::command(["SET", "key", "value"]).encode();
        for cut in 0..full.len() {
            assert_eq!(
                Resp::decode(&full[..cut]),
                Decoded::Incomplete,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn protocol_errors_detected() {
        assert!(matches!(
            Resp::decode(b"?bogus\r\n"),
            Decoded::ProtocolError(_)
        ));
        assert!(matches!(
            Resp::decode(b"$abc\r\n"),
            Decoded::ProtocolError(_)
        ));
        assert!(matches!(
            Resp::decode(b"$-5\r\n"),
            Decoded::ProtocolError(_)
        ));
        assert!(matches!(
            Resp::decode(b"$2\r\nhiXX"),
            Decoded::ProtocolError(_)
        ));
    }

    #[test]
    fn stream_reassembles_fragments() {
        let mut s = RespStream::new();
        let frames: Vec<Resp> = (0..10)
            .map(|i| Resp::command(["SET", &format!("k{i}"), &"v".repeat(i * 7)]))
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        // Feed in 3-byte fragments.
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            s.feed(chunk);
            while let Some(f) = s.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn stream_reports_corruption() {
        let mut s = RespStream::new();
        s.feed(b"!nope\r\n");
        assert!(s.next_frame().is_err());
    }

    #[test]
    fn into_command_args() {
        let args = Resp::command(["SET", "k", "v"])
            .into_command_args()
            .unwrap();
        assert_eq!(args, vec![b"SET".to_vec(), b"k".to_vec(), b"v".to_vec()]);
        assert!(Resp::Int(5).into_command_args().is_err());
        assert!(Resp::Array(vec![]).into_command_args().is_err());
        assert!(Resp::Array(vec![Resp::Int(1)]).into_command_args().is_err());
    }
}
