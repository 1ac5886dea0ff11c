//! The unified error type of the query API.
//!
//! Every fallible entry point of [`crate::engine::GedEngine`] (and the
//! configuration plumbing feeding it) returns [`GedError`] instead of
//! panicking: unknown method names, methods missing from a registry,
//! structurally invalid inputs (empty graphs, zero search budgets, empty
//! stores), expired deadlines and malformed environment configuration
//! all surface as matchable variants.

use crate::method::MethodKind;
use ged_graph::ParseError;
use std::fmt;

/// Everything that can go wrong answering a GED query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GedError {
    /// A method name failed to parse (see [`MethodKind::from_str`]).
    ///
    /// [`MethodKind::from_str`]: std::str::FromStr::from_str
    UnknownMethod(String),
    /// The method is valid but has no solver in the engine's registry.
    MethodNotRegistered(MethodKind),
    /// The method cannot generate edit paths (pure value regressors such
    /// as SimGNN or TaGSim).
    PathsUnsupported(MethodKind),
    /// An input graph has no nodes. The payload names which input
    /// (`"g1"`, `"g2"`, `"query"`, or a dataset position).
    EmptyGraph(String),
    /// A search budget or result size of zero was requested where at
    /// least one is required (edit-path beam width, top-k size, exact
    /// verification budget).
    InvalidK {
        /// What the `k` parameterizes (`"beam width"` / `"top-k"` /
        /// `"verify budget"`).
        what: &'static str,
    },
    /// A store-level query (`TopK` / `Range` / `Matrix`) was issued
    /// against an empty [`ged_graph::GraphStore`].
    EmptyStore,
    /// Malformed configuration (e.g. an unparsable `GED_THREADS` value,
    /// or a NaN range-search threshold — note `τ = +∞` is *valid* and
    /// means a full scan).
    Config(String),
    /// A graph or dataset payload failed to parse (malformed JSON or a
    /// violated graph invariant). Wraps the codec's structured
    /// [`ParseError`] with its byte/line/column position.
    Parse(ParseError),
    /// A cooperative execution deadline expired mid-query. Store-level
    /// plans check the deadline between verification blocks and abandon
    /// the remaining work instead of occupying the worker pool until an
    /// answer nobody is waiting for completes.
    DeadlineExceeded,
}

impl From<ParseError> for GedError {
    fn from(e: ParseError) -> Self {
        GedError::Parse(e)
    }
}

impl fmt::Display for GedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GedError::UnknownMethod(s) => write!(
                f,
                "unknown GED method {s:?} (expected one of: SimGNN, GPN, TaGSim, GEDGNN, \
                 GEDIOT, Classic, GEDGW, Noah, GEDHOT)"
            ),
            GedError::MethodNotRegistered(m) => {
                write!(f, "method {m} has no solver in this engine's registry")
            }
            GedError::PathsUnsupported(m) => {
                write!(f, "method {m} cannot generate edit paths")
            }
            GedError::EmptyGraph(which) => write!(f, "graph {which} has no nodes"),
            GedError::InvalidK { what } => write!(f, "{what} must be at least 1, got 0"),
            GedError::EmptyStore => write!(f, "store-level query against an empty store"),
            GedError::Config(msg) => write!(f, "configuration error: {msg}"),
            GedError::Parse(e) => write!(f, "{e}"),
            GedError::DeadlineExceeded => {
                write!(f, "query deadline exceeded during execution")
            }
        }
    }
}

impl std::error::Error for GedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(GedError, &str)> = vec![
            (GedError::UnknownMethod("GEDX".into()), "GEDX"),
            (GedError::MethodNotRegistered(MethodKind::Gediot), "GEDIOT"),
            (GedError::PathsUnsupported(MethodKind::TaGSim), "TaGSim"),
            (GedError::EmptyGraph("g1".into()), "g1"),
            (GedError::InvalidK { what: "top-k" }, "top-k"),
            (GedError::EmptyStore, "empty store"),
            (GedError::Config("bad".into()), "bad"),
            (
                GedError::Parse(ged_graph::io::graph_from_json("nope").unwrap_err()),
                "parse error",
            ),
            (GedError::DeadlineExceeded, "deadline exceeded"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }
}
