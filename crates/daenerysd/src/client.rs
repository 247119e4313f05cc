//! The replay/test client: one connection per attempt, retry with
//! exponential backoff and deterministic jitter, optional wire-fault
//! injection on the send path.
//!
//! Chaos is keyed by `(request_id, attempt)` — not by wall clock or
//! socket identity — so a replay knows *in advance* exactly which
//! sends are corrupted, and the bit-identical gate can compare the
//! unaffected requests' verdicts against a fault-free run.

use crate::chaos::{splitmix64, WireFault, WireFaultPlan};
use crate::protocol::{
    read_frame, write_frame, AdminRequest, ErrorCode, FrameError, Request, Response,
};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Retry schedule: exponential backoff with deterministic jitter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// First-retry backoff, milliseconds; doubles per attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Mixes into the jitter draw.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 20,
            max_backoff_ms: 1_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The pause before retrying `request_id`'s attempt number
    /// `attempt` (0-based attempt that just failed): exponential in
    /// the attempt, jittered by a deterministic draw over
    /// `(seed, request_id, attempt)` so concurrent replays don't
    /// stampede in lockstep yet remain reproducible.
    pub fn backoff(&self, request_id: u64, attempt: u32) -> Duration {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_backoff_ms.max(1));
        let draw = splitmix64(
            self.seed ^ request_id.wrapping_mul(0x9e3779b97f4a7c15) ^ u64::from(attempt),
        );
        // Half fixed, half jittered: never less than exp/2, never
        // more than exp.
        Duration::from_millis(exp / 2 + draw % (exp / 2 + 1))
    }
}

/// Why a request (or a whole retry budget) failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect/framing/socket).
    Io(io::Error),
    /// The server's response frame was malformed or torn.
    Frame(FrameError),
    /// The response payload did not decode.
    Decode(String),
    /// This attempt's send was deliberately faulted by the chaos plan
    /// (a torn write or pre-send disconnect) — retry.
    Faulted(WireFault),
    /// Every attempt failed; `last` describes the final failure.
    Exhausted {
        /// Attempts consumed.
        attempts: u32,
        /// The last attempt's failure, rendered.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {}", e),
            ClientError::Frame(e) => write!(f, "frame: {}", e),
            ClientError::Decode(m) => write!(f, "decode: {}", m),
            ClientError::Faulted(w) => write!(f, "send faulted: {}", w),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "exhausted after {} attempt(s); last: {}", attempts, last)
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A daemon client. Each attempt opens a fresh connection, so a
/// faulted or torn session can never poison the next attempt.
#[derive(Clone, Debug)]
pub struct Client {
    addr: SocketAddr,
    retry: RetryPolicy,
    faults: WireFaultPlan,
    /// Trickle step delay for injected slow-loris sends.
    loris_delay: Duration,
    /// How long to wait for the response frame.
    read_timeout: Duration,
}

impl Client {
    /// A client for the daemon at `addr`, no chaos, default retries.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            retry: RetryPolicy::default(),
            faults: WireFaultPlan::none(),
            loris_delay: Duration::from_millis(60),
            read_timeout: Duration::from_secs(30),
        }
    }

    /// Replaces the retry schedule.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Injects wire faults on sends, keyed by `(request_id, attempt)`.
    #[must_use]
    pub fn with_faults(mut self, faults: WireFaultPlan) -> Client {
        self.faults = faults;
        self
    }

    /// Overrides the response-read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Client {
        self.read_timeout = timeout;
        self
    }

    /// True when the chaos plan will corrupt *some* attempt of
    /// `request_id` within the retry budget — i.e. the request is
    /// *affected* and excluded from bit-identical comparison.
    pub fn is_affected(&self, request_id: u64) -> bool {
        (0..self.retry.max_attempts)
            .any(|a| !self.faults.fault_for(request_id, u64::from(a)).is_none())
    }

    /// One attempt: connect, send (through the chaos plan), read one
    /// response frame.
    ///
    /// # Errors
    ///
    /// Any transport/decode failure, or [`ClientError::Faulted`] when
    /// the chaos plan destroyed this attempt's send.
    pub fn request_once(&self, req: &Request, attempt: u32) -> Result<Response, ClientError> {
        let stream = TcpStream::connect(self.addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.read_timeout))
            .map_err(ClientError::Io)?;
        let _ = stream.set_nodelay(true);
        let fault = self.faults.fault_for(req.id, u64::from(attempt));
        self.send_with_fault(&stream, req, fault)?;
        let mut reader = stream;
        let payload = read_frame(&mut reader, |_| true).map_err(ClientError::Frame)?;
        Response::decode(&payload).map_err(ClientError::Decode)
    }

    fn send_with_fault(
        &self,
        stream: &TcpStream,
        req: &Request,
        fault: WireFault,
    ) -> Result<(), ClientError> {
        let mut w = stream;
        match fault {
            WireFault::None => {
                write_frame(&mut w, req.encode().as_bytes()).map_err(ClientError::Io)
            }
            WireFault::SlowLoris { chunk } => {
                // Trickle the real frame; the server's frame deadline
                // is expected to cut us off (write error) — that's the
                // point.
                let mut frame = Vec::new();
                write_frame(&mut frame, req.encode().as_bytes()).map_err(ClientError::Io)?;
                for piece in frame.chunks(chunk.max(1)) {
                    if let Err(e) = w.write_all(piece).and_then(|()| w.flush()) {
                        return Err(ClientError::Io(e));
                    }
                    std::thread::sleep(self.loris_delay);
                }
                Ok(())
            }
            other => {
                let mut frame = Vec::new();
                write_frame(&mut frame, req.encode().as_bytes()).map_err(ClientError::Io)?;
                match WireFaultPlan::corrupt(other, &frame) {
                    None => {
                        // Pre-send disconnect.
                        let _ = stream.shutdown(Shutdown::Both);
                        Err(ClientError::Faulted(other))
                    }
                    Some(bytes) => {
                        let sent = w.write_all(&bytes).and_then(|()| w.flush());
                        match other {
                            WireFault::Torn { .. } => {
                                // Hang up mid-frame regardless of how
                                // the partial write went.
                                let _ = stream.shutdown(Shutdown::Write);
                                sent.map_err(ClientError::Io)?;
                                Err(ClientError::Faulted(other))
                            }
                            // Garbage header: deliver it fully and let
                            // the server answer with a typed error.
                            _ => sent.map_err(ClientError::Io),
                        }
                    }
                }
            }
        }
    }

    /// One admin-plane request on a fresh connection, chaos-free (the
    /// telemetry plane is the observer — scrapes are never faulted).
    ///
    /// # Errors
    ///
    /// Any transport/decode failure.
    pub fn admin_once(&self, req: &AdminRequest) -> Result<Response, ClientError> {
        let stream = TcpStream::connect(self.addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.read_timeout))
            .map_err(ClientError::Io)?;
        let _ = stream.set_nodelay(true);
        let mut w = &stream;
        write_frame(&mut w, req.encode().as_bytes()).map_err(ClientError::Io)?;
        let mut reader = stream;
        let payload = read_frame(&mut reader, |_| true).map_err(ClientError::Frame)?;
        Response::decode(&payload).map_err(ClientError::Decode)
    }

    /// Sends with retry: failed transports, chaos-faulted sends,
    /// transient error responses, and admission refusals all back off
    /// and retry until a definitive response or the attempt budget
    /// runs out. A parse or wf error is *definitive* — the server
    /// decoded the request fine and the program doesn't parse or is
    /// ill-formed — so it is returned, not retried.
    ///
    /// Returns the definitive response and the number of attempts
    /// consumed.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when every attempt failed.
    pub fn request_with_retry(&self, req: &Request) -> Result<(Response, u32), ClientError> {
        let attempts = self.retry.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            match self.request_once(req, attempt) {
                Ok(resp @ Response::Ok { .. }) => return Ok((resp, attempt + 1)),
                Ok(
                    resp @ Response::Err {
                        code: ErrorCode::Parse | ErrorCode::Wf,
                        ..
                    },
                ) => return Ok((resp, attempt + 1)),
                Ok(Response::Refused { detail, .. }) => {
                    last = format!("refused: {}", detail);
                }
                Ok(Response::Err { code, message, .. }) => {
                    last = format!("{}: {}", code.name(), message);
                }
                // A verify request can never legitimately be answered
                // with an admin frame; treat it as a transient wire
                // mixup and retry.
                Ok(Response::Admin { kind, .. }) => {
                    last = format!("unexpected admin response ({})", kind);
                }
                Err(e) => last = e.to_string(),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(self.retry.backoff(req.id, attempt));
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_jittered_and_deterministic() {
        let retry = RetryPolicy::default();
        let a = retry.backoff(7, 0);
        let b = retry.backoff(7, 0);
        assert_eq!(a, b, "same (request, attempt) → same pause");
        assert!(a.as_millis() >= 10 && a.as_millis() <= 20, "{:?}", a);
        let later = retry.backoff(7, 4);
        assert!(later >= a, "backoff grows with the attempt");
        assert!(
            later.as_millis() <= u128::from(retry.max_backoff_ms),
            "{:?}",
            later
        );
        assert_ne!(
            retry.backoff(7, 1),
            retry.backoff(8, 1),
            "different requests de-synchronize"
        );
    }

    #[test]
    fn affectedness_is_known_in_advance() {
        let client =
            Client::new("127.0.0.1:1".parse().unwrap()).with_faults(WireFaultPlan::full(11));
        let affected: Vec<u64> = (0..200).filter(|id| client.is_affected(*id)).collect();
        assert!(
            !affected.is_empty() && affected.len() < 200,
            "moderate rates affect some requests, spare others ({})",
            affected.len()
        );
        let again: Vec<u64> = (0..200).filter(|id| client.is_affected(*id)).collect();
        assert_eq!(affected, again);
    }
}
