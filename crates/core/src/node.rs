//! The actor wrapper placing XPaxos replicas and clients in one simulation.

use crate::client::Client;
use crate::messages::XPaxosMsg;
use crate::replica::Replica;
use xft_simnet::{Actor, Context, ControlCode, NodeId};

/// A node of an XPaxos cluster: either a replica or a client.
pub enum XPaxosNode {
    /// A replica.
    Replica(Box<Replica>),
    /// A client.
    Client(Box<Client>),
}

impl XPaxosNode {
    /// Returns the replica, panicking if this node is a client.
    pub fn replica(&self) -> &Replica {
        match self {
            XPaxosNode::Replica(r) => r,
            XPaxosNode::Client(_) => panic!("node is a client, not a replica"),
        }
    }

    /// Mutable access to the replica, panicking if this node is a client.
    pub fn replica_mut(&mut self) -> &mut Replica {
        match self {
            XPaxosNode::Replica(r) => r,
            XPaxosNode::Client(_) => panic!("node is a client, not a replica"),
        }
    }

    /// Returns the client, panicking if this node is a replica.
    pub fn client(&self) -> &Client {
        match self {
            XPaxosNode::Client(c) => c,
            XPaxosNode::Replica(_) => panic!("node is a replica, not a client"),
        }
    }
}

impl Actor for XPaxosNode {
    type Msg = XPaxosMsg;

    fn on_start(&mut self, ctx: &mut Context<XPaxosMsg>) {
        match self {
            XPaxosNode::Replica(r) => r.on_start(ctx),
            XPaxosNode::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: XPaxosMsg, ctx: &mut Context<XPaxosMsg>) {
        match self {
            XPaxosNode::Replica(r) => r.on_message(from, msg, ctx),
            XPaxosNode::Client(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<XPaxosMsg>) {
        match self {
            XPaxosNode::Replica(r) => r.on_timer(token, ctx),
            XPaxosNode::Client(c) => c.on_timer(token, ctx),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<XPaxosMsg>) {
        match self {
            XPaxosNode::Replica(r) => r.on_recover(ctx),
            XPaxosNode::Client(c) => c.on_recover(ctx),
        }
    }

    fn on_control(&mut self, code: ControlCode, ctx: &mut Context<XPaxosMsg>) {
        match self {
            XPaxosNode::Replica(r) => r.on_control(code, ctx),
            XPaxosNode::Client(c) => c.on_control(code, ctx),
        }
    }
}
