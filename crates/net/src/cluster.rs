//! Cluster bring-up helpers shared by the binaries and the integration tests.

use crate::address::AddressBook;
use crate::runtime::TcpRuntime;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use xft_core::messages::XPaxosMsg;
use xft_core::types::{client_key, replica_key, ClientId};
use xft_core::XPaxosConfig;
use xft_crypto::KeyRegistry;
use xft_simnet::Actor;
use xft_store::SyncNotifier;

/// Registers every cluster identity (replicas and clients) with the registry.
///
/// The simulated signature scheme verifies through the registry's key table,
/// which stands in for the paper's PKI ("all machines have public keys of all
/// other processes"). In a single simulation the harness registers everyone as
/// a side effect of construction; separate OS processes must each pre-register
/// the full membership — same seed, same keys — before verifying anything.
pub fn register_cluster_keys(registry: &Arc<KeyRegistry>, config: &XPaxosConfig) {
    for r in 0..config.n() {
        registry.register(replica_key(r));
    }
    for c in 0..config.client_nodes.len() {
        registry.register(client_key(ClientId(c as u64)));
    }
}

/// Binds `nodes` loopback listeners on OS-assigned ephemeral ports (bind port
/// 0 and read the port back) and publishes them in a shared [`AddressBook`].
///
/// This is the collision-free way to stand up an in-process test cluster:
/// fixed or randomly guessed port blocks collide when several test binaries
/// (or several CI jobs on one machine) run in parallel, while ports the OS
/// hands out are guaranteed free at bind time. Both the `tcp_cluster`
/// integration test and the chaos explorer's live-socket sampling use this.
pub fn bind_loopback_cluster(
    nodes: usize,
) -> std::io::Result<(Vec<TcpListener>, Arc<AddressBook>)> {
    let listeners: Vec<TcpListener> = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let mut addrs = Vec::with_capacity(nodes);
    for (node, listener) in listeners.iter().enumerate() {
        addrs.push((node, listener.local_addr()?));
    }
    Ok((listeners, AddressBook::new(addrs)))
}

/// Posts each background fsync completion that `notifier` announces into
/// `runtime`'s inbox as a [`XPaxosMsg::SyncDone`], releasing the client
/// replies gated on the newly durable LSN. A storage that syncs inline has
/// no notifier, and nothing is wired.
pub fn deliver_sync_done<A: Actor<Msg = XPaxosMsg>>(
    runtime: &TcpRuntime<A>,
    notifier: Option<SyncNotifier>,
) {
    if let Some(slot) = notifier {
        let inject = runtime.local_injector();
        let _ = slot.set(Box::new(move |lsn| inject(XPaxosMsg::SyncDone(lsn))));
    }
}

/// Parses a comma-separated node address list (`host:port,host:port,…`),
/// ordered replicas-first then clients, exactly as node ids are assigned.
pub fn parse_node_addrs(list: &str) -> Result<Vec<SocketAddr>, String> {
    list.split(',')
        .map(|a| {
            a.trim()
                .parse::<SocketAddr>()
                .map_err(|e| format!("bad address {a:?}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_node_addrs_accepts_lists_and_rejects_garbage() {
        let addrs = parse_node_addrs("127.0.0.1:1000, 127.0.0.1:1001").unwrap();
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[1].port(), 1001);
        assert!(parse_node_addrs("localhost-no-port").is_err());
        assert!(parse_node_addrs("").is_err());
    }

    #[test]
    fn bind_loopback_cluster_hands_out_distinct_live_ports() {
        let (listeners, book) = bind_loopback_cluster(4).expect("bind");
        assert_eq!(listeners.len(), 4);
        let mut ports: Vec<u16> = (0..4)
            .map(|n| book.get(n).expect("published").port())
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4, "OS-assigned ports must be distinct");
        for p in ports {
            assert_ne!(
                p, 0,
                "port must be read back, not left as the bind-0 wildcard"
            );
        }
    }

    #[test]
    fn register_cluster_keys_covers_all_identities() {
        let config = XPaxosConfig::new(1, 2);
        let registry = KeyRegistry::new(7);
        register_cluster_keys(&registry, &config);
        assert_eq!(registry.len(), 3 + 2);
        assert!(registry.contains(replica_key(2)));
        assert!(registry.contains(client_key(ClientId(1))));
    }
}
