//! The actor wrapper placing one protocol's replicas and clients in one
//! simulation: XPaxos's and every baseline's.

use crate::client::Client;
use crate::replica::Replica;
use xft_simnet::{Actor, Context, ControlCode, NodeId};

/// A node of a two-role cluster: either a replica `R` or a client `C` of one
/// protocol, both speaking `R::Msg`.
pub enum Node<R, C> {
    /// A replica.
    Replica(Box<R>),
    /// A client.
    Client(Box<C>),
}

/// A node of an XPaxos cluster.
pub type XPaxosNode = Node<Replica, Client>;

impl<R, C> Node<R, C> {
    /// Returns the replica, panicking if this node is a client.
    pub fn replica(&self) -> &R {
        match self {
            Node::Replica(r) => r,
            Node::Client(_) => panic!("node is a client, not a replica"),
        }
    }

    /// Mutable access to the replica, panicking if this node is a client.
    pub fn replica_mut(&mut self) -> &mut R {
        match self {
            Node::Replica(r) => r,
            Node::Client(_) => panic!("node is a client, not a replica"),
        }
    }

    /// Returns the client, panicking if this node is a replica.
    pub fn client(&self) -> &C {
        match self {
            Node::Client(c) => c,
            Node::Replica(_) => panic!("node is a replica, not a client"),
        }
    }
}

impl<R: Actor, C: Actor<Msg = R::Msg>> Actor for Node<R, C> {
    type Msg = R::Msg;

    fn on_start(&mut self, ctx: &mut Context<R::Msg>) {
        match self {
            Node::Replica(r) => r.on_start(ctx),
            Node::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: R::Msg, ctx: &mut Context<R::Msg>) {
        match self {
            Node::Replica(r) => r.on_message(from, msg, ctx),
            Node::Client(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<R::Msg>) {
        match self {
            Node::Replica(r) => r.on_timer(token, ctx),
            Node::Client(c) => c.on_timer(token, ctx),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<R::Msg>) {
        match self {
            Node::Replica(r) => r.on_recover(ctx),
            Node::Client(c) => c.on_recover(ctx),
        }
    }

    fn on_control(&mut self, code: ControlCode, ctx: &mut Context<R::Msg>) {
        match self {
            Node::Replica(r) => r.on_control(code, ctx),
            Node::Client(c) => c.on_control(code, ctx),
        }
    }
}
