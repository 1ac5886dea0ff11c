//! GED-as-a-service: a long-running daemon over the `ot-ged` engine.
//!
//! The `ged-served` binary (and the embeddable [`Server`] it is built
//! on) owns a mutable [`ged_graph::GraphStore`], the engine's cached
//! pivot index, and the prediction cache, and speaks a versioned
//! line-delimited JSON protocol — one request object in, one response
//! object out, per line — over stdin/stdout and an optional Unix
//! domain socket.
//!
//! The crate splits into three layers:
//!
//! * [`protocol`] — the typed request/response model and error codes
//!   (the wire schema, independent of any transport);
//! * [`codec`] — the hand-rolled encoder/parser between those types
//!   and wire lines, written on `ged_graph::io::Reader`;
//! * [`server`] — the daemon itself: engine + store behind a
//!   reader–writer lock, admission control, per-request deadlines,
//!   and graceful drain-then-exit shutdown.
//!
//! ```
//! use ged_server::{Server, ServerConfig};
//!
//! let server = Server::new(&ServerConfig::default()).unwrap();
//! let (line, close) = server.handle_line(r#"{"v":1,"id":"1","op":"ping"}"#);
//! assert_eq!(line, r#"{"v":1,"id":"1","ok":true,"rev":0,"type":"pong"}"#);
//! assert!(!close);
//! ```

pub mod codec;
pub mod protocol;
pub mod server;

pub use codec::{encode_request, encode_response, parse_request, parse_response};
pub use protocol::{
    ErrorCode, GraphRef, Request, Response, ResponseBody, StatsBody, MAX_LINE_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
