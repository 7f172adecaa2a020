//! The blocking client of the wire protocol: one TCP connection,
//! requests answered in order — one at a time through the typed
//! helpers, or several in flight through [`Client::send`] /
//! [`Client::recv`] pipelining.
//!
//! Every request is stamped with an auto-incrementing `#<id>` token and
//! the echoed id is checked on receive, so a pipelining client knows
//! each reply really answers the request it thinks it does. Sockets
//! carry read/write timeouts ([`DEFAULT_TIMEOUT`] unless configured),
//! so a hung server surfaces as [`ServerError::Timeout`] instead of
//! wedging the caller forever.

use crate::proto::{parse_pairs, read_frame, stats_from_reply, write_frame, Reply, Request};
use crate::ServerError;
use ringjoin_core::{IndexKind, RcjAlgorithm, RcjPair, RcjStats, RingBounds};
use ringjoin_geom::Item;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket read/write deadline applied by [`Client::connect`]. Generous
/// because joins genuinely take a while — the deadline is for *hung*
/// servers, not slow ones.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a retry loop waits after its attempt number `attempt`
/// (counting from 1) failed: `base` doubling with each attempt, up to
/// 64 × `base`, plus a deterministic jitter under 23 ms drawn from
/// `salt` and `attempt` (no RNG dependency), so concurrent retriers do
/// not return in lockstep. The client's reconnects (and so a remote
/// shard's resends) and the topology supervisor's respawns all wait
/// this long.
pub(crate) fn backoff(base: Duration, attempt: u32, salt: u64) -> Duration {
    let jitter = salt.wrapping_mul(31).wrapping_add(u64::from(attempt) * 17) % 23;
    base * (1 << (attempt.clamp(1, 7) - 1)) + Duration::from_millis(jitter)
}

/// A blocking wire-protocol client. Every typed method sends one
/// request frame and waits for the matching response; `ERR` responses
/// surface as [`ServerError::Remote`] (overload as
/// [`ServerError::Busy`], hangs as [`ServerError::Timeout`]).
pub struct Client {
    stream: TcpStream,
    /// Peer address captured at connect time — a shed session's socket
    /// is already disconnected by the time a retry needs to know where
    /// to reconnect.
    peer: std::net::SocketAddr,
    next_id: u64,
}

/// A join-shaped answer as received over the wire: the pairs (exactly
/// the server's merge order, coordinates bit-exact) plus the counters
/// the server reported on the status line.
#[derive(Clone, Debug)]
pub struct RemoteOutput {
    /// Result pairs in the server's deterministic merge order.
    pub pairs: Vec<RcjPair>,
    /// Counters parsed from the status line (fields the server did not
    /// send stay zero).
    pub stats: RcjStats,
    /// How many shards the server queried for this request.
    pub shards_queried: usize,
}

fn io_error(context: &str, e: std::io::Error) -> ServerError {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        ServerError::Timeout(format!("{context}: {e}"))
    } else {
        ServerError::Io(format!("{context}: {e}"))
    }
}

impl Client {
    /// Connects to a server (e.g. `"127.0.0.1:4815"`) with
    /// [`DEFAULT_TIMEOUT`] socket deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServerError> {
        Self::connect_with_timeout(addr, Some(DEFAULT_TIMEOUT))
    }

    /// Connects with an explicit socket deadline (`None` = block
    /// forever, the pre-timeout behavior).
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Client, ServerError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServerError::Io(format!("cannot connect: {e}")))?;
        stream.set_nodelay(true).ok();
        let peer = stream
            .peer_addr()
            .map_err(|e| ServerError::Io(format!("connected socket has no peer: {e}")))?;
        let mut client = Client {
            stream,
            peer,
            next_id: 1,
        };
        client.set_timeout(timeout)?;
        Ok(client)
    }

    /// Reconfigures the socket read/write deadline.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServerError> {
        self.stream
            .set_read_timeout(timeout)
            .and_then(|()| self.stream.set_write_timeout(timeout))
            .map_err(|e| ServerError::Io(format!("cannot set socket timeout: {e}")))
    }

    /// Sends one request frame without waiting for the reply, returning
    /// the request id stamped on it. Pair with [`Client::recv`]:
    /// several sends back to back pipeline on the connection.
    pub fn send(&mut self, req: &Request) -> Result<u64, ServerError> {
        self.send_payload(&req.encode())
    }

    /// [`Client::send`] of an encoded request of either grammar.
    fn send_payload(&mut self, payload: &str) -> Result<u64, ServerError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = crate::proto::encode_request_id(id, payload);
        write_frame(&mut self.stream, payload.as_bytes())
            .map_err(|e| io_error("send failed", e))?;
        Ok(id)
    }

    /// Receives one reply: the echoed request id (if any) and the
    /// parsed outcome. The outer `Result` is transport failure; the
    /// inner one is the server's verdict on that request.
    #[allow(clippy::type_complexity)]
    pub fn recv(&mut self) -> Result<(Option<u64>, Result<Reply, ServerError>), ServerError> {
        let payload = read_frame(&mut self.stream)
            .map_err(|e| io_error("receive failed", e))?
            .ok_or_else(|| ServerError::Io("server closed the connection".into()))?;
        Ok(Reply::parse_with_id(&payload))
    }

    /// Sends like [`Client::send`], but when the write fails because
    /// the peer already closed the connection, drains one pending reply
    /// first: a server that sheds a session writes its `ERR busy` frame
    /// *before* closing, and that verdict beats a raw broken pipe.
    fn send_or_pending_err(&mut self, payload: &str) -> Result<u64, ServerError> {
        match self.send_payload(payload) {
            Ok(id) => Ok(id),
            Err(send_err) => {
                if let Ok((_, Err(server_err))) = self.recv() {
                    return Err(server_err);
                }
                Err(send_err)
            }
        }
    }

    /// Sends one request and parses the response, checking that the
    /// echoed id matches.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ServerError> {
        self.round_trip(&req.encode())
    }

    /// [`Client::request`] of an encoded request of either grammar.
    fn round_trip(&mut self, payload: &str) -> Result<Reply, ServerError> {
        let id = self.send_or_pending_err(payload)?;
        let (reply_id, outcome) = self.recv()?;
        let reply = outcome?;
        if reply_id != Some(id) {
            return Err(ServerError::BadRequest(format!(
                "reply id {reply_id:?} does not match request id {id}"
            )));
        }
        Ok(reply)
    }

    /// [`Client::request`] with bounded, hint-honoring retries on
    /// overload *and* connection loss. A server that sheds a request
    /// from its *admission queue* answers `ERR busy retry_after_ms=<ms>`
    /// and keeps the connection open, so the retry reuses it; a server
    /// over its *session* limit closes the connection after the same
    /// verdict, and a server that is down entirely — e.g. a durable
    /// coordinator mid-restart — surfaces as an I/O error (broken pipe,
    /// reset, connection refused), in which case the retry reconnects
    /// to the peer address first, sleeping an exponentially growing
    /// backoff (25 ms doubling to a 1.6 s cap) so a client spanning a
    /// coordinator restart window rides it out instead of hanging or
    /// failing fast. Each sleep adds the backoff's jitter (derived from
    /// the request id and attempt number) so a herd of displaced
    /// clients does not return in lockstep. Every other error,
    /// including `Timeout` and server-side `ERR` verdicts, passes
    /// through untouched.
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        max_attempts: u32,
    ) -> Result<Reply, ServerError> {
        self.request_payload(&req.encode(), max_attempts)
    }

    /// [`Client::request_with_retry`] of an encoded request of either
    /// grammar: a coordinator's remote shards send their shard requests
    /// through this loop.
    pub(crate) fn request_payload(
        &mut self,
        payload: &str,
        max_attempts: u32,
    ) -> Result<Reply, ServerError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let salt = self.next_id;
            match self.round_trip(payload) {
                Err(ServerError::Busy { retry_after_ms }) if attempt < max_attempts => {
                    // The server's hint, plus the jitter alone.
                    let hint = Duration::from_millis(retry_after_ms);
                    std::thread::sleep(hint + backoff(Duration::ZERO, attempt, salt));
                }
                // The connection died: session-limit shed, coordinator
                // crash, or restart window. Back off, then revive the
                // connection best-effort — if the listener is not back
                // yet the next attempt fails fast on the dead socket
                // and lands here again, charging the budget each time.
                Err(ServerError::Io(_)) if attempt < max_attempts => {
                    std::thread::sleep(backoff(Duration::from_millis(25), attempt, salt));
                    let _ = self.reconnect();
                }
                outcome => return outcome,
            }
        }
    }

    /// Replaces the connection with a fresh one to the same peer,
    /// preserving the socket deadlines (and the id counter — reply
    /// matching keeps working across the swap).
    fn reconnect(&mut self) -> Result<(), ServerError> {
        let timeout = self.stream.read_timeout().ok().flatten();
        self.stream = Client::connect_with_timeout(self.peer, timeout)?.stream;
        Ok(())
    }

    /// Pipelines `reqs`: all requests are written before any reply is
    /// read, then the in-order replies are matched to their request ids.
    /// The first server-side `ERR` aborts with that request's error
    /// (later replies of the batch are drained first, keeping the
    /// connection usable).
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Reply>, ServerError> {
        let mut ids = Vec::with_capacity(reqs.len());
        for req in reqs {
            ids.push(self.send_or_pending_err(&req.encode())?);
        }
        let mut replies = Vec::with_capacity(reqs.len());
        let mut first_err = None;
        for &id in &ids {
            let (reply_id, outcome) = self.recv()?;
            match outcome {
                // An ERR with no id is unsolicited — the server shed
                // this *session* (e.g. over the session limit), not one
                // request of the batch; nothing more is coming.
                Err(e) if reply_id.is_none() => return Err(e),
                Err(e) if reply_id == Some(id) => first_err = first_err.or(Some(e)),
                Ok(reply) if reply_id == Some(id) => replies.push(reply),
                _ => {
                    return Err(ServerError::BadRequest(format!(
                        "pipelined reply id {reply_id:?} does not match request id {id}"
                    )))
                }
            }
        }
        match first_err {
            None => Ok(replies),
            Some(e) => Err(e),
        }
    }

    /// Registers a dataset on the server (every shard builds the chosen
    /// index over it). Errors if the name is already loaded.
    pub fn load(
        &mut self,
        name: &str,
        kind: IndexKind,
        items: &[Item],
    ) -> Result<Reply, ServerError> {
        self.request(&Request::Load {
            name: name.to_string(),
            kind,
            items: items.to_vec(),
        })
    }

    /// Inserts new points into a live dataset; the whole batch is
    /// refused if any id is already present. The `OK` reply carries the
    /// dataset's new `epoch=`.
    pub fn insert(&mut self, name: &str, items: &[Item]) -> Result<Reply, ServerError> {
        self.request(&Request::Insert {
            name: name.to_string(),
            items: items.to_vec(),
        })
    }

    /// Deletes points from a live dataset by id; the whole batch is
    /// refused if any id is absent.
    pub fn delete(&mut self, name: &str, ids: &[u64]) -> Result<Reply, ServerError> {
        self.request(&Request::Delete {
            name: name.to_string(),
            ids: ids.to_vec(),
        })
    }

    /// Inserts-or-replaces points in a live dataset; never refused.
    pub fn upsert(&mut self, name: &str, items: &[Item]) -> Result<Reply, ServerError> {
        self.request(&Request::Upsert {
            name: name.to_string(),
            items: items.to_vec(),
        })
    }

    /// Decodes a join-shaped reply (`JOIN`/`SELFJOIN`/`TOPK`) into a
    /// [`RemoteOutput`] — public so pipelining callers can decode the
    /// replies [`Client::pipeline`] hands back.
    pub fn decode_output(reply: &Reply) -> Result<RemoteOutput, ServerError> {
        Ok(RemoteOutput {
            pairs: parse_pairs(&reply.body)?,
            stats: stats_from_reply(reply),
            shards_queried: reply
                .field("shards_queried")
                .and_then(|v| v.parse().ok())
                .unwrap_or_default(),
        })
    }

    fn join_shaped(&mut self, req: &Request) -> Result<RemoteOutput, ServerError> {
        let reply = self.request(req)?;
        Self::decode_output(&reply)
    }

    /// Runs a bichromatic join; the answer is byte-identical to a local
    /// single-engine run over the same data.
    pub fn join(
        &mut self,
        outer: &str,
        inner: &str,
        algo: RcjAlgorithm,
        bounds: Option<RingBounds>,
    ) -> Result<RemoteOutput, ServerError> {
        self.join_shaped(&Request::Join {
            outer: outer.to_string(),
            inner: inner.to_string(),
            algo,
            bounds,
        })
    }

    /// Runs a self-join; see [`Client::join`].
    pub fn self_join(
        &mut self,
        dataset: &str,
        algo: RcjAlgorithm,
        bounds: Option<RingBounds>,
    ) -> Result<RemoteOutput, ServerError> {
        self.join_shaped(&Request::SelfJoin {
            dataset: dataset.to_string(),
            algo,
            bounds,
        })
    }

    /// The `k` most compact pairs in ascending ring diameter.
    pub fn top_k(
        &mut self,
        outer: &str,
        inner: &str,
        k: usize,
    ) -> Result<RemoteOutput, ServerError> {
        self.join_shaped(&Request::TopK {
            outer: outer.to_string(),
            inner: inner.to_string(),
            k,
        })
    }

    /// The server's resolved plan plus sharding postscript.
    pub fn explain(
        &mut self,
        outer: &str,
        inner: Option<&str>,
        algo: RcjAlgorithm,
        k: Option<usize>,
    ) -> Result<String, ServerError> {
        let reply = self.request(&Request::Explain {
            outer: outer.to_string(),
            inner: inner.map(str::to_string),
            algo,
            k,
        })?;
        Ok(reply.body)
    }

    /// The server's catalog and request counters, as human-readable
    /// text (status-line fields first, then the body lines).
    pub fn stats(&mut self) -> Result<String, ServerError> {
        let reply = self.request(&Request::Stats)?;
        let mut out = String::new();
        for (k, v) in &reply.fields {
            if k == "id" {
                continue; // transport detail, not a statistic
            }
            out.push_str(&format!("{k} {v}\n"));
        }
        out.push_str(&reply.body);
        Ok(out)
    }

    /// Asks the server to stop after acknowledging.
    pub fn shutdown(&mut self) -> Result<(), ServerError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}
