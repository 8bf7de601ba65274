//! # distrust-wire
//!
//! Deterministic serialization, framing, the TCP transport, and the frame
//! server for the `distrust` workspace.
//!
//! Explicit message types with a canonical binary codec, so that
//! hashed/signed structures have one byte representation everywhere; real
//! TCP loopback sockets wherever the paper's evaluation attributes cost to
//! socket hops. There is one wire path: a [`TcpTransport`] sends
//! length-prefixed frames, and a [`FrameServer`] — a listener feeding a
//! readiness-based event loop ([`reactor`], [`frame_nb`]) that multiplexes
//! thousands of connections onto a small fixed thread pool — answers each
//! connection strictly in request order. Every server in the workspace,
//! the enclave proxy included, is a [`FrameServer`], and every frame is
//! read by one decoder, [`FrameReader`].
//!
//! [`sys`] holds the only `unsafe` code of the library crates: the
//! `poll(2)` call a reactor thread waits in, and every client wait for a
//! trust domain's answer, each bounded, waits in.

pub mod codec;
pub mod frame;
pub mod frame_nb;
pub mod pipeline;
pub mod reactor;
pub mod server;
pub mod sync;
pub mod sys;
pub mod transport;

pub use codec::{Decode, DecodeError, Encode};
pub use frame::{write_frame, FrameError, MAX_FRAME_LEN, READ_CHUNK};
pub use frame_nb::{FrameReader, WriteBuf};
pub use pipeline::PipelinedClient;
pub use reactor::{FrameService, Reactor, ReactorHandle};
pub use server::FrameServer;
pub use sync::HealthyMutex;
pub use transport::{TcpTransport, Transport, TransportError};
