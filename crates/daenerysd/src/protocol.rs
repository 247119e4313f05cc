//! The wire protocol: length-delimited, versioned JSONL frames.
//!
//! One frame is `DAE1 <decimal-payload-length>\n` followed by exactly
//! that many payload bytes and a trailing `\n`. The magic doubles as
//! the protocol version (`DAE2` would be a new framing); the header is
//! capped at [`MAX_HEADER_LEN`] bytes and the payload at
//! [`MAX_PAYLOAD_LEN`], so garbage headers and hostile lengths are
//! rejected before any allocation trusts them.
//!
//! Payloads are single-line JSON ([`Request`]/[`Response`]): each
//! encoder builds a [`Json`] value and [`Json::render`] writes it, and
//! [`daenerys_obs::parse_json`] decodes it — the daemon stays
//! zero-dependency. Every decode failure maps to a typed
//! [`FrameError`]/[`ErrorCode`], never a panic: the chaos suite feeds
//! this module torn, truncated, and scrambled bytes and asserts a
//! clean per-session error each time.

use daenerys_idf::exec::Verdict;
use daenerys_obs::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol magic and version tag, first on every frame.
pub const MAGIC: &[u8; 4] = b"DAE1";
/// Longest accepted frame header (`DAE1 <len>\n`), bytes.
pub const MAX_HEADER_LEN: usize = 32;
/// Largest accepted payload, bytes (8 MiB).
pub const MAX_PAYLOAD_LEN: usize = 8 * 1024 * 1024;

/// Why a frame could not be read. Every variant is a *per-session*
/// failure: the server answers (when the stream still works) and/or
/// closes this session, and no other session observes anything.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream at a frame boundary — a clean end.
    Closed,
    /// The stream ended mid-frame (torn write or mid-request
    /// disconnect).
    Torn {
        /// Bytes expected to finish the frame.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The header was not `DAE1 <decimal>\n` within
    /// [`MAX_HEADER_LEN`] bytes.
    BadHeader(String),
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized(usize),
    /// The wait callback gave up — shutdown requested, or the
    /// slow-loris frame deadline elapsed mid-frame.
    Aborted {
        /// True when frame bytes had already arrived (the slow-loris
        /// signature); false for an idle abort between frames.
        mid_frame: bool,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => f.write_str("peer closed the stream"),
            FrameError::Torn { expected, got } => {
                write!(f, "stream ended mid-frame ({}/{} bytes)", got, expected)
            }
            FrameError::BadHeader(detail) => write!(f, "bad frame header: {}", detail),
            FrameError::Oversized(len) => {
                write!(f, "payload of {} bytes exceeds {}", len, MAX_PAYLOAD_LEN)
            }
            FrameError::Aborted { mid_frame: true } => {
                f.write_str("frame did not complete before its deadline")
            }
            FrameError::Aborted { mid_frame: false } => f.write_str("read aborted"),
            FrameError::Io(e) => write!(f, "i/o error: {}", e),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: header, payload, trailing newline.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut header = Vec::with_capacity(MAX_HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.push(b' ');
    header.extend_from_slice(payload.len().to_string().as_bytes());
    header.push(b'\n');
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one frame's payload.
///
/// `keep_waiting(mid_frame)` is consulted every time the reader would
/// block (`WouldBlock`/`TimedOut` on a stream with a read timeout),
/// and with `true` after every read that leaves a started frame
/// incomplete: return `false` to abort — the server's shutdown poll
/// between frames, and its slow-loris frame deadline once bytes have
/// started arriving. The progress calls hold that deadline against a
/// sender that trickles bytes faster than the read timeout and so
/// never stalls.
///
/// # Errors
///
/// See [`FrameError`]; no variant panics and none is reachable more
/// than [`MAX_HEADER_LEN`]+[`MAX_PAYLOAD_LEN`] bytes into a stream.
pub fn read_frame<R: Read>(
    r: &mut R,
    mut keep_waiting: impl FnMut(bool) -> bool,
) -> Result<Vec<u8>, FrameError> {
    // Header: byte-at-a-time until '\n', capped.
    let mut header = Vec::with_capacity(MAX_HEADER_LEN);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if header.is_empty() {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Torn {
                        expected: header.len() + 1,
                        got: header.len(),
                    })
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                header.push(byte[0]);
                if header.len() > MAX_HEADER_LEN {
                    return Err(FrameError::BadHeader(format!(
                        "no newline within {} bytes",
                        MAX_HEADER_LEN
                    )));
                }
                if !keep_waiting(true) {
                    return Err(FrameError::Aborted { mid_frame: true });
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_waiting(!header.is_empty()) {
                    return Err(FrameError::Aborted {
                        mid_frame: !header.is_empty(),
                    });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = parse_header(&header)?;
    if len > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized(len));
    }

    // Payload plus the trailing newline.
    let mut payload = vec![0u8; len + 1];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Torn {
                    expected: payload.len(),
                    got,
                })
            }
            Ok(n) => {
                got += n;
                if got < payload.len() && !keep_waiting(true) {
                    return Err(FrameError::Aborted { mid_frame: true });
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_waiting(true) {
                    return Err(FrameError::Aborted { mid_frame: true });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if payload.pop() != Some(b'\n') {
        return Err(FrameError::BadHeader(
            "frame not terminated by newline".to_string(),
        ));
    }
    Ok(payload)
}

fn parse_header(header: &[u8]) -> Result<usize, FrameError> {
    let bad = |detail: &str| FrameError::BadHeader(detail.to_string());
    if header.len() < MAGIC.len() + 2 || &header[..MAGIC.len()] != MAGIC {
        return Err(bad("unknown magic/version"));
    }
    if header[MAGIC.len()] != b' ' {
        return Err(bad("missing separator"));
    }
    let digits = &header[MAGIC.len() + 1..];
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return Err(bad("non-decimal payload length"));
    }
    std::str::from_utf8(digits)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| bad("unparsable payload length"))
}

/// One verification request, as carried in a frame payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Client-chosen id echoed on the response.
    pub id: u64,
    /// The tenant this session bills work to.
    pub tenant: String,
    /// The IDF program to verify.
    pub source: String,
    /// Requested per-method deadline (clamped by tenant policy).
    pub deadline_ms: Option<u64>,
    /// Requested per-method solver fuel (clamped by tenant policy).
    pub solver_fuel: Option<u64>,
    /// Requested diagnostic cap for recovery parsing.
    pub max_errors: Option<usize>,
}

impl Request {
    /// A minimal request (no budget overrides).
    pub fn new(id: u64, tenant: impl Into<String>, source: impl Into<String>) -> Request {
        Request {
            id,
            tenant: tenant.into(),
            source: source.into(),
            deadline_ms: None,
            solver_fuel: None,
            max_errors: None,
        }
    }

    /// Encodes the request as single-line JSON (unset budget
    /// overrides are omitted).
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("id", self.id.into()),
            ("tenant", self.tenant.as_str().into()),
            ("source", self.source.as_str().into()),
        ];
        let optional = [
            ("deadline_ms", self.deadline_ms.map(Json::from)),
            ("solver_fuel", self.solver_fuel.map(Json::from)),
            ("max_errors", self.max_errors.map(Json::from)),
        ];
        fields.extend(optional.into_iter().filter_map(|(k, v)| Some((k, v?))));
        Json::obj(fields).render()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        Request::from_object(&parse_object(payload)?)
    }

    /// Decodes a request from its already-parsed payload object.
    fn from_object(obj: &BTreeMap<String, Json>) -> Result<Request, String> {
        Ok(Request {
            id: uint(obj, "id").ok_or("missing/invalid \"id\"")?,
            tenant: obj
                .get("tenant")
                .and_then(|t| t.as_str())
                .ok_or("missing \"tenant\"")?
                .to_string(),
            source: obj
                .get("source")
                .and_then(|s| s.as_str())
                .ok_or("missing \"source\"")?
                .to_string(),
            deadline_ms: uint(obj, "deadline_ms"),
            solver_fuel: uint(obj, "solver_fuel"),
            max_errors: uint(obj, "max_errors").map(|n| n as usize),
        })
    }
}

/// One admin-plane request, as carried in a frame payload.
///
/// Admin frames share the DAE1 framing and listener with verification
/// requests but are distinguished by an `"admin"` key in the payload
/// (see [`Frame::decode`]). They are answered by the session thread
/// like any frame but are **exempt from tenant admission**, so the
/// telemetry plane stays responsive exactly when every tenant budget
/// is saturated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdminRequest {
    /// Scrape the labeled metrics registry (JSON snapshot).
    Metrics {
        /// Client-chosen id echoed on the response.
        id: u64,
    },
    /// Liveness/health: uptime, per-tenant in-flight, refusals, drain
    /// state, and the admission conservation ledger.
    Health {
        /// Client-chosen id echoed on the response.
        id: u64,
    },
    /// Tail the bounded ring of recent trace events.
    TraceTail {
        /// Client-chosen id echoed on the response.
        id: u64,
        /// Only events with `seq > after_seq` are returned (0 tails
        /// from the oldest retained event).
        after_seq: u64,
        /// At most this many events (server-clamped).
        max: u64,
    },
}

impl AdminRequest {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            AdminRequest::Metrics { id }
            | AdminRequest::Health { id }
            | AdminRequest::TraceTail { id, .. } => *id,
        }
    }

    /// The wire name of this admin request kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AdminRequest::Metrics { .. } => "metrics",
            AdminRequest::Health { .. } => "health",
            AdminRequest::TraceTail { .. } => "trace_tail",
        }
    }

    /// Encodes the admin request as single-line JSON.
    pub fn encode(&self) -> String {
        let mut fields = vec![("id", self.id().into()), ("admin", self.kind().into())];
        if let AdminRequest::TraceTail { after_seq, max, .. } = self {
            fields.extend([("after_seq", (*after_seq).into()), ("max", (*max).into())]);
        }
        Json::obj(fields).render()
    }
}

/// Parses a payload as one JSON object, the first step of every
/// decoder.
fn parse_object(payload: &[u8]) -> Result<BTreeMap<String, Json>, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    match parse_json(text).map_err(|e| format!("payload is not JSON: {}", e))? {
        Json::Obj(obj) => Ok(obj),
        _ => Err("payload is not a JSON object".to_string()),
    }
}

/// The non-negative integer under `key`, if there is one.
fn uint(obj: &BTreeMap<String, Json>, key: &str) -> Option<u64> {
    let n = obj.get(key)?.as_num()?;
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// Any decoded inbound frame: a verification request or an admin
/// request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// A verification request (admission-controlled, then verified on
    /// the session thread).
    Verify(Request),
    /// An admin-plane request (exempt from admission).
    Admin(AdminRequest),
}

impl Frame {
    /// Decodes an inbound payload, branching on the `"admin"` key:
    /// payloads carrying one decode as [`AdminRequest`], everything
    /// else decodes as a verification [`Request`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem.
    pub fn decode(payload: &[u8]) -> Result<Frame, String> {
        let obj = parse_object(payload)?;
        let Some(admin) = obj.get("admin") else {
            return Request::from_object(&obj).map(Frame::Verify);
        };
        let id = uint(&obj, "id").ok_or("missing/invalid \"id\"")?;
        match admin.as_str().ok_or("\"admin\" must be a string")? {
            "metrics" => Ok(Frame::Admin(AdminRequest::Metrics { id })),
            "health" => Ok(Frame::Admin(AdminRequest::Health { id })),
            "trace_tail" => Ok(Frame::Admin(AdminRequest::TraceTail {
                id,
                after_seq: uint(&obj, "after_seq").unwrap_or(0),
                max: uint(&obj, "max").unwrap_or(u64::MAX),
            })),
            other => Err(format!("unknown admin request {:?}", other)),
        }
    }
}

/// Machine-readable error class on an error response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The program source did not parse (diagnostics in the message).
    Parse,
    /// The program parsed but is not well-formed (diagnoses in the
    /// message).
    Wf,
    /// The frame payload was not a well-formed request.
    BadRequest,
    /// The request panicked the verifier; contained, this request
    /// only.
    Internal,
    /// The server is draining and no longer accepts new requests.
    Shutdown,
}

impl ErrorCode {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Wf => "wf",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Internal => "internal",
            ErrorCode::Shutdown => "shutdown",
        }
    }

    fn parse(s: &str) -> Option<ErrorCode> {
        match s {
            "parse" => Some(ErrorCode::Parse),
            "wf" => Some(ErrorCode::Wf),
            "bad_request" => Some(ErrorCode::BadRequest),
            "internal" => Some(ErrorCode::Internal),
            "shutdown" => Some(ErrorCode::Shutdown),
            _ => None,
        }
    }
}

/// One method's verdict, reduced to its deterministic wire form (the
/// chaos gate compares these byte-for-byte across runs, so no
/// wall-clock statistics ride along).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireVerdict {
    /// `verified`, `failed`, `unknown`, or `crashed`.
    pub kind: String,
    /// Deterministic detail: failure counts, unknown reason, or panic
    /// message.
    pub detail: String,
}

impl WireVerdict {
    /// Reduces a full [`Verdict`] to the wire form.
    pub fn from_verdict(v: &Verdict) -> WireVerdict {
        match v {
            Verdict::Verified(_) => WireVerdict {
                kind: "verified".to_string(),
                detail: String::new(),
            },
            Verdict::Failed { failures, .. } => WireVerdict {
                kind: "failed".to_string(),
                detail: format!("{} obligation(s)", failures.len()),
            },
            Verdict::Unknown { reason, .. } => WireVerdict {
                kind: "unknown".to_string(),
                detail: reason.to_string(),
            },
            Verdict::CrashedInternal { message } => WireVerdict {
                kind: "crashed".to_string(),
                detail: message.clone(),
            },
        }
    }
}

/// One response frame payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The request was verified (possibly to per-method `Unknown`s).
    Ok {
        /// Echo of the request id.
        id: u64,
        /// Per-method wire verdicts, method-name order.
        verdicts: BTreeMap<String, WireVerdict>,
        /// Methods re-verified rather than restored from the warm
        /// store (`None` when the daemon runs storeless).
        reverified: Option<u64>,
    },
    /// Admission control refused the request before any work ran —
    /// the whole-request `Unknown(admission)` of the paper's
    /// degradation story. Retryable after backoff.
    Refused {
        /// Echo of the request id.
        id: u64,
        /// Which admission limit tripped.
        detail: String,
    },
    /// The request failed without verdicts.
    Err {
        /// Echo of the request id (0 when the request was too damaged
        /// to carry one).
        id: u64,
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// An admin-plane answer. The body is a self-contained JSON
    /// document carried as a *string* value on the wire, so the frame
    /// roundtrips losslessly regardless of what the body contains
    /// (clients re-parse it with [`daenerys_obs::parse_json`]).
    Admin {
        /// Echo of the admin request id.
        id: u64,
        /// Which admin request this answers (`metrics`, `health`,
        /// `trace_tail`).
        kind: String,
        /// The JSON document answering the request.
        body: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. }
            | Response::Refused { id, .. }
            | Response::Err { id, .. }
            | Response::Admin { id, .. } => *id,
        }
    }

    /// Encodes the response as single-line JSON.
    pub fn encode(&self) -> String {
        let mut fields = vec![("id", self.id().into())];
        match self {
            Response::Ok {
                verdicts,
                reverified,
                ..
            } => {
                let verdicts = verdicts.iter().map(|(name, v)| {
                    let v = Json::obj([
                        ("verdict", v.kind.as_str().into()),
                        ("detail", v.detail.as_str().into()),
                    ]);
                    (name.as_str(), v)
                });
                fields.extend([("status", "ok".into()), ("verdicts", Json::obj(verdicts))]);
                if let Some(n) = reverified {
                    fields.push(("reverified", (*n).into()));
                }
            }
            Response::Refused { detail, .. } => {
                fields.extend([
                    ("status", "refused".into()),
                    ("detail", detail.as_str().into()),
                ]);
            }
            Response::Err { code, message, .. } => {
                fields.extend([
                    ("status", "error".into()),
                    ("code", code.name().into()),
                    ("message", message.as_str().into()),
                ]);
            }
            Response::Admin { kind, body, .. } => {
                fields.extend([
                    ("status", "admin".into()),
                    ("kind", kind.as_str().into()),
                    ("body", body.as_str().into()),
                ]);
            }
        }
        Json::obj(fields).render()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let obj = parse_object(payload)?;
        let id = uint(&obj, "id").ok_or("missing/invalid \"id\"")?;
        match obj
            .get("status")
            .and_then(|s| s.as_str())
            .ok_or("missing \"status\"")?
        {
            "ok" => {
                let raw = obj
                    .get("verdicts")
                    .and_then(|v| v.as_obj())
                    .ok_or("missing \"verdicts\"")?;
                let mut verdicts = BTreeMap::new();
                for (name, v) in raw {
                    let v = v.as_obj().ok_or("verdict is not an object")?;
                    verdicts.insert(
                        name.clone(),
                        WireVerdict {
                            kind: v
                                .get("verdict")
                                .and_then(|k| k.as_str())
                                .ok_or("verdict missing kind")?
                                .to_string(),
                            detail: v
                                .get("detail")
                                .and_then(|d| d.as_str())
                                .unwrap_or_default()
                                .to_string(),
                        },
                    );
                }
                let reverified = obj
                    .get("reverified")
                    .and_then(|n| n.as_num())
                    .map(|n| n as u64);
                Ok(Response::Ok {
                    id,
                    verdicts,
                    reverified,
                })
            }
            "refused" => Ok(Response::Refused {
                id,
                detail: obj
                    .get("detail")
                    .and_then(|d| d.as_str())
                    .unwrap_or_default()
                    .to_string(),
            }),
            "error" => Ok(Response::Err {
                id,
                code: obj
                    .get("code")
                    .and_then(|c| c.as_str())
                    .and_then(ErrorCode::parse)
                    .ok_or("missing/unknown error code")?,
                message: obj
                    .get("message")
                    .and_then(|m| m.as_str())
                    .unwrap_or_default()
                    .to_string(),
            }),
            "admin" => Ok(Response::Admin {
                id,
                kind: obj
                    .get("kind")
                    .and_then(|k| k.as_str())
                    .ok_or("missing admin \"kind\"")?
                    .to_string(),
                body: obj
                    .get("body")
                    .and_then(|b| b.as_str())
                    .ok_or("missing admin \"body\"")?
                    .to_string(),
            }),
            other => Err(format!("unknown status {:?}", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        read_frame(&mut Cursor::new(wire), |_| true).unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"{\"id\":1}"), b"{\"id\":1}");
        let big = vec![b'x'; 70_000];
        assert_eq!(roundtrip(&big), big);
        // Payloads may contain newlines and even fake headers.
        assert_eq!(roundtrip(b"a\nDAE1 3\nb"), b"a\nDAE1 3\nb");
    }

    #[test]
    fn torn_and_garbage_frames_are_typed_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello world").unwrap();
        wire.truncate(wire.len() - 4);
        assert!(matches!(
            read_frame(&mut Cursor::new(wire), |_| true),
            Err(FrameError::Torn { .. })
        ));

        let cases: &[&[u8]] = &[
            b"XXXX 5\nhello\n",
            b"DAE2 5\nhello\n",
            b"DAE1 -5\nhello\n",
            b"DAE1 5x\nhello\n",
            b"DAE1\n",
            b"DAE1 99999999999999999999\n",
        ];
        for case in cases {
            assert!(
                matches!(
                    read_frame(&mut Cursor::new(case.to_vec()), |_| true),
                    Err(FrameError::BadHeader(_))
                ),
                "case {:?}",
                String::from_utf8_lossy(case)
            );
        }
        assert!(matches!(
            read_frame(
                &mut Cursor::new(format!("DAE1 {}\n", MAX_PAYLOAD_LEN + 1).into_bytes()),
                |_| true
            ),
            Err(FrameError::Oversized(_))
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new()), |_| true),
            Err(FrameError::Closed)
        ));
        // A frame whose trailing byte is not '\n' desyncs — rejected.
        assert!(matches!(
            read_frame(&mut Cursor::new(b"DAE1 2\nabX".to_vec()), |_| true),
            Err(FrameError::BadHeader(_))
        ));
    }

    /// Quote, backslash, every C0 control, DEL, U+2028 and a
    /// multibyte character.
    fn hostile() -> String {
        ['"', '\\', '\u{7f}', '\u{2028}', 'π']
            .into_iter()
            .chain((0u8..0x20).map(char::from))
            .collect()
    }

    #[test]
    fn requests_and_responses_roundtrip() {
        let req = Request {
            id: 42,
            tenant: "acme\"co".to_string(),
            source: "method m() { }\n".to_string(),
            deadline_ms: Some(250),
            solver_fuel: None,
            max_errors: Some(8),
        };
        assert_eq!(Request::decode(req.encode().as_bytes()).unwrap(), req);
        let req = Request {
            id: 43,
            tenant: hostile(),
            source: format!("method m() {{ }} // {}", hostile()),
            deadline_ms: None,
            solver_fuel: Some(7),
            max_errors: None,
        };
        assert_eq!(Request::decode(req.encode().as_bytes()).unwrap(), req);

        let mut verdicts = BTreeMap::new();
        verdicts.insert(
            "m".to_string(),
            WireVerdict {
                kind: "unknown".to_string(),
                detail: "budget exhausted (deadline): 250 ms".to_string(),
            },
        );
        verdicts.insert(
            format!("m{}", hostile()),
            WireVerdict {
                kind: "crashed".to_string(),
                detail: hostile(),
            },
        );
        let ok = Response::Ok {
            id: 42,
            verdicts,
            reverified: Some(1),
        };
        assert_eq!(Response::decode(ok.encode().as_bytes()).unwrap(), ok);

        for detail in ["tenant over in-flight cap".to_string(), hostile()] {
            let refused = Response::Refused { id: 7, detail };
            assert_eq!(
                Response::decode(refused.encode().as_bytes()).unwrap(),
                refused
            );
        }

        for code in [
            ErrorCode::Parse,
            ErrorCode::Wf,
            ErrorCode::BadRequest,
            ErrorCode::Internal,
            ErrorCode::Shutdown,
        ] {
            for message in ["payload is not JSON: ...".to_string(), hostile()] {
                let err = Response::Err {
                    id: 0,
                    code,
                    message,
                };
                assert_eq!(Response::decode(err.encode().as_bytes()).unwrap(), err);
            }
        }

        let admin = Response::Admin {
            id: 5,
            kind: "health".to_string(),
            body: hostile(),
        };
        assert_eq!(Response::decode(admin.encode().as_bytes()).unwrap(), admin);
    }

    #[test]
    fn admin_frames_roundtrip_and_branch() {
        for req in [
            AdminRequest::Metrics { id: 1 },
            AdminRequest::Health { id: 2 },
            AdminRequest::TraceTail {
                id: 3,
                after_seq: 17,
                max: 64,
            },
        ] {
            match Frame::decode(req.encode().as_bytes()).unwrap() {
                Frame::Admin(decoded) => assert_eq!(decoded, req),
                Frame::Verify(_) => panic!("admin payload decoded as verify"),
            }
        }
        // A plain verification request still branches to Verify.
        let verify = Request::new(9, "t", "method m() {}");
        match Frame::decode(verify.encode().as_bytes()).unwrap() {
            Frame::Verify(decoded) => assert_eq!(decoded, verify),
            Frame::Admin(_) => panic!("verify payload decoded as admin"),
        }
        assert!(Frame::decode(b"{\"id\":1,\"admin\":\"nope\"}").is_err());
        assert!(Frame::decode(b"{\"admin\":\"metrics\"}").is_err(), "no id");

        // The admin response carries an arbitrary JSON body losslessly.
        let admin = Response::Admin {
            id: 5,
            kind: "metrics".to_string(),
            body: "{\"counters\":[{\"name\":\"a\\\"b\",\"value\":1}]}".to_string(),
        };
        let decoded = Response::decode(admin.encode().as_bytes()).unwrap();
        assert_eq!(decoded, admin);
        let Response::Admin { body, .. } = decoded else {
            unreachable!()
        };
        daenerys_obs::parse_json(&body).expect("body re-parses as JSON");
    }

    #[test]
    fn request_decode_rejects_garbage_without_panicking() {
        for bad in [
            &b"\xff\xfe"[..],
            b"not json",
            b"[]",
            b"{}",
            b"{\"id\":-1,\"tenant\":\"t\",\"source\":\"\"}",
            b"{\"id\":1.5,\"tenant\":\"t\",\"source\":\"\"}",
            b"{\"id\":1,\"tenant\":7,\"source\":\"\"}",
        ] {
            assert!(Request::decode(bad).is_err());
        }
    }

    /// A reader that reports `WouldBlock` forever, as an idle socket
    /// with a read timeout does.
    struct Idle;
    impl Read for Idle {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn an_idle_stream_asks_whether_to_keep_waiting_between_frames() {
        let mut asked = Vec::new();
        let result = read_frame(&mut Idle, |mid_frame| {
            asked.push(mid_frame);
            asked.len() < 3
        });
        assert!(matches!(
            result,
            Err(FrameError::Aborted { mid_frame: false })
        ));
        assert_eq!(asked, [false, false, false]);
    }

    #[test]
    fn a_started_frame_is_aborted_when_its_deadline_passes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let mut calls = 0;
        let result = read_frame(&mut Cursor::new(wire), |mid_frame| {
            assert!(mid_frame, "progress calls come only mid-frame");
            calls += 1;
            calls < 3
        });
        assert!(matches!(
            result,
            Err(FrameError::Aborted { mid_frame: true })
        ));
        assert_eq!(calls, 3, "one call per header byte until refused");
    }

    #[test]
    fn back_to_back_frames_read_in_order_then_close() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third\n").unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r, |_| true).unwrap(), b"first");
        assert_eq!(read_frame(&mut r, |_| true).unwrap(), b"");
        assert_eq!(read_frame(&mut r, |_| true).unwrap(), b"third\n");
        assert!(matches!(
            read_frame(&mut r, |_| true),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn frame_errors_say_what_went_wrong() {
        let long_header = format!("DAE1 {}", "9".repeat(MAX_HEADER_LEN));
        let err = read_frame(&mut Cursor::new(long_header.into_bytes()), |_| true).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad frame header: no newline within 32 bytes"
        );
        let torn = read_frame(&mut Cursor::new(b"DAE1 4\nab".to_vec()), |_| true).unwrap_err();
        assert_eq!(torn.to_string(), "stream ended mid-frame (2/5 bytes)");
        assert_eq!(
            FrameError::Oversized(9).to_string(),
            format!("payload of 9 bytes exceeds {}", MAX_PAYLOAD_LEN)
        );
        assert_eq!(
            FrameError::Aborted { mid_frame: true }.to_string(),
            "frame did not complete before its deadline"
        );
        assert_eq!(
            FrameError::Aborted { mid_frame: false }.to_string(),
            "read aborted"
        );
    }

    #[test]
    fn error_codes_roundtrip_their_wire_names() {
        for code in [
            ErrorCode::Parse,
            ErrorCode::Wf,
            ErrorCode::BadRequest,
            ErrorCode::Internal,
            ErrorCode::Shutdown,
        ] {
            assert_eq!(ErrorCode::parse(code.name()), Some(code));
        }
        assert_eq!(ErrorCode::parse("Parse"), None);
        assert_eq!(ErrorCode::parse(""), None);
    }

    #[test]
    fn wire_verdicts_carry_no_wall_clock_data() {
        let fast = daenerys_idf::VerifyStats {
            wall_nanos: 1,
            ..Default::default()
        };
        let slow = daenerys_idf::VerifyStats {
            wall_nanos: 9_000_000,
            ..fast.clone()
        };
        let a = WireVerdict::from_verdict(&Verdict::Verified(fast));
        assert_eq!(a, WireVerdict::from_verdict(&Verdict::Verified(slow)));
        assert_eq!((a.kind.as_str(), a.detail.as_str()), ("verified", ""));
        let crashed = WireVerdict::from_verdict(&Verdict::CrashedInternal {
            message: "boom".to_string(),
        });
        assert_eq!(
            (crashed.kind.as_str(), crashed.detail.as_str()),
            ("crashed", "boom")
        );
    }
}
