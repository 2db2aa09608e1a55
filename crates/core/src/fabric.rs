//! The fabric: ResilientDB deployments, in one process or many.
//!
//! [`SystemBuilder`] configures and launches a replica set — over the
//! in-memory switchboard (the default) or over real TCP loopback sockets
//! ([`TransportMode::Tcp`]), still inside one process. [`ResilientDb`] is
//! the running deployment handle — create client sessions, inject faults,
//! inspect chains, shut down.
//!
//! For genuine multi-process clusters, [`NodeOptions`]
//! (`rdb_common::NodeOptions`) plus [`start_replica`] launch a *single*
//! node against a shared peer address map, and [`client_net`] gives a
//! client process the transport its sessions (or the load driver,
//! [`crate::swarm`]) run on; the `rdb-node` binary is a thin CLI over
//! exactly these entry points.
//!
//! Every launch path consumes the same [`NodeOptions`] struct and goes
//! through its single `validate()` — the builder here is a fluent shell
//! that assigns its fields; text (flags and `[node]` files) goes through
//! `NodeOptions::set`.

use crate::client::ClientSession;
use crate::scenario::{equivocation, FaultAction};
use crate::swarm::{SwarmConfig, SwarmReport};
use rdb_common::{
    messages::Sender, ClientId, CryptoScheme, Digest, NodeOptions, ProtocolKind, ReplicaId,
    SystemConfig, TransportMode,
};
use rdb_crypto::KeyRegistry;
use rdb_net::{NetHandle, Network, NetworkConfig, TcpConfig, TcpTransport};
use rdb_pipeline::{spawn_replica, ReplicaHandle, ReplicaShared, SaturationReport};
use std::sync::Arc;
use std::time::Duration;

/// Derives the key registry every node of a deployment must agree on.
pub fn registry_for(opts: &NodeOptions) -> KeyRegistry {
    KeyRegistry::generate(
        opts.system.crypto,
        opts.system.n,
        opts.client_keys,
        opts.seed,
    )
}

/// Builder for a [`ResilientDb`] deployment.
///
/// # Example
///
/// ```
/// use resilientdb::SystemBuilder;
///
/// let db = SystemBuilder::new(4)
///     .batch_size(10)
///     .table_size(1_000)
///     .client_keys(2)
///     .build()
///     .expect("valid config");
/// assert_eq!(db.replica_count(), 4);
/// db.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    opts: NodeOptions,
}

impl SystemBuilder {
    /// Starts a builder for `n` replicas with paper-default settings but a
    /// laptop-scale client population.
    ///
    /// # Panics
    /// Panics if `n < 4`.
    pub fn new(n: usize) -> Self {
        SystemBuilder {
            opts: NodeOptions::in_memory(n).expect("need at least 4 replicas"),
        }
    }

    /// Starts a builder from fully formed options.
    pub fn from_options(opts: NodeOptions) -> Self {
        SystemBuilder { opts }
    }

    /// Sets the consensus protocol.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.opts.system.protocol = protocol;
        self
    }

    /// Sets transactions per consensus batch.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.opts.system.batch_size = batch_size;
        self
    }

    /// Number of parallel consensus instances (multi-primary ordering;
    /// `k > 1` requires PBFT).
    pub fn consensus_instances(mut self, k: usize) -> Self {
        self.opts.system.consensus_instances = k;
        self
    }

    /// Sets the signing scheme.
    pub fn crypto(mut self, crypto: CryptoScheme) -> Self {
        self.opts.system.crypto = crypto;
        self
    }

    /// Sets the thread allocation (the `xE yB` knob of Figure 8).
    pub fn threads(mut self, threads: rdb_common::ThreadConfig) -> Self {
        self.opts.system.threads = threads;
        self
    }

    /// Sets the number of pre-loaded table records.
    pub fn table_size(mut self, records: u64) -> Self {
        self.opts.system.table_size = records;
        self
    }

    /// Sets the checkpoint interval Δ (in transactions).
    pub fn checkpoint_interval(mut self, txns: u64) -> Self {
        self.opts.system.checkpoint_interval = txns;
        self
    }

    /// Number of client identities to generate keys for (also sizes the
    /// modeled client population).
    pub fn client_keys(mut self, clients: usize) -> Self {
        self.opts.client_keys = clients;
        self.opts.system.num_clients = clients;
        self
    }

    /// Seed for deterministic key generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Selects the transport backend (default: in-memory).
    pub fn transport(mut self, transport: TransportMode) -> Self {
        self.opts.transport = transport;
        self
    }

    /// Access to the underlying system config for advanced tweaks.
    pub fn config_mut(&mut self) -> &mut SystemConfig {
        &mut self.opts.system
    }

    /// Launches the deployment: generates keys, starts the transport(s)
    /// and all replica pipelines.
    ///
    /// # Errors
    /// Returns the validation error if the configuration is inconsistent,
    /// or an `InvalidConfig` error if the TCP loopback sockets cannot be
    /// bound.
    pub fn build(self) -> Result<ResilientDb, rdb_common::CommonError> {
        let opts = self.opts;
        opts.validate()?;
        let registry = registry_for(&opts);
        let config = opts.system.clone();
        let (replica_nets, client_net) = match opts.transport {
            TransportMode::InMemory => {
                let net = Network::new(NetworkConfig::default()).handle();
                (vec![net.clone(); config.n], net)
            }
            TransportMode::Tcp => {
                let (peers, listeners) =
                    TcpTransport::bind_loopback_cluster(config.n).map_err(|e| {
                        rdb_common::CommonError::InvalidConfig(format!(
                            "cannot bind loopback cluster: {e}"
                        ))
                    })?;
                let replica_nets: Vec<NetHandle> = listeners
                    .into_iter()
                    .map(|listener| {
                        TcpTransport::with_listener(
                            TcpConfig {
                                listen: listener.local_addr().ok(),
                                peers: peers.clone(),
                                ..TcpConfig::default()
                            },
                            Some(listener),
                        )
                        .handle()
                    })
                    .collect();
                let client_net =
                    TcpTransport::with_listener(TcpConfig::for_client(peers), None).handle();
                (replica_nets, client_net)
            }
        };
        let replicas: Vec<ReplicaHandle> = (0..config.n as u32)
            .map(|i| spawn_replica(&config, ReplicaId(i), &replica_nets[i as usize], &registry))
            .collect();
        Ok(ResilientDb {
            config,
            registry,
            replica_nets,
            client_net,
            replicas,
        })
    }
}

/// A running ResilientDB deployment.
pub struct ResilientDb {
    config: SystemConfig,
    registry: KeyRegistry,
    /// One handle per replica — clones of a single switchboard for the
    /// in-memory backend, distinct socket transports for TCP loopback.
    replica_nets: Vec<NetHandle>,
    /// The transport client sessions attach to.
    client_net: NetHandle,
    replicas: Vec<ReplicaHandle>,
}

impl std::fmt::Debug for ResilientDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientDb")
            .field("n", &self.config.n)
            .field("protocol", &self.config.protocol)
            .finish()
    }
}

impl ResilientDb {
    /// The deployment's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The initial primary (view 0: replica 0). Client sessions address
    /// this replica first; after a view change their retransmissions reach
    /// whoever leads now.
    pub fn primary(&self) -> ReplicaId {
        ReplicaId(0)
    }

    /// The view each replica currently has installed (instance 0).
    pub fn views(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.shared().current_view())
            .collect()
    }

    /// The view each replica has installed for consensus instance `j`.
    pub fn instance_views(&self, j: usize) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.shared().instance_view(j))
            .collect()
    }

    /// Batches committed by consensus instance `j` at replica `id`.
    pub fn committed_batches_for(&self, id: ReplicaId, j: usize) -> u64 {
        self.replicas[id.as_usize()]
            .shared()
            .committed_batches_for(j)
    }

    /// The client-side transport handle (for statistics; for the
    /// in-memory backend this is the shared switchboard, so its stats
    /// cover all replicas too).
    pub fn network(&self) -> &NetHandle {
        &self.client_net
    }

    /// Opens a client session for `id`.
    ///
    /// # Panics
    /// Panics if `id` exceeds the generated client keys or is reused.
    pub fn client(&self, id: u64) -> ClientSession {
        ClientSession::connect(
            ClientId(id),
            &self.client_net,
            &self.registry,
            self.config.protocol,
            self.config.f,
            self.config.consensus_instances,
            self.config.n,
        )
    }

    /// Every transport's fault controller (one shared controller for the
    /// in-memory backend, one per node over TCP). Fault injection applies
    /// to all so both backends behave identically.
    fn all_fault_controllers(&self) -> impl Iterator<Item = &rdb_net::FaultController> {
        self.replica_nets
            .iter()
            .chain(std::iter::once(&self.client_net))
            .map(|net| net.faults())
    }

    /// Crashes a backup replica (all its traffic is dropped).
    ///
    /// # Panics
    /// Panics when asked to crash the primary — the paper's failure
    /// experiments fail backups only. Apply [`FaultAction::Crash`] for the
    /// view-change scenarios that deliberately kill the primary.
    pub fn crash_backup(&self, id: ReplicaId) {
        assert_ne!(id, self.primary(), "failure experiments crash backups only");
        self.apply_fault(&FaultAction::Crash(id.0));
    }

    /// Injects one fault on every transport's controller, so both
    /// backends behave identically: a crash drops all of a replica's
    /// traffic until its recovery (crashing the primary forces a view
    /// change once the others' suspicion timers fire); a partition drops
    /// traffic between its groups but not client traffic.
    pub fn apply_fault(&self, action: &FaultAction) {
        for faults in self.all_fault_controllers() {
            action.apply_to_controller(faults);
        }
    }

    /// Makes replica `liar` equivocate ([`crate::scenario::equivocation`])
    /// on every transport, signing its lies with its own keys.
    pub fn equivocate(&self, liar: ReplicaId) {
        let lie = equivocation(self.registry.provider_for_replica(liar));
        for faults in self.all_fault_controllers() {
            faults.set_rewrite(Sender::Replica(liar), Arc::clone(&lie));
        }
    }

    /// Seeds the deterministic drop/delay schedule on every transport.
    pub fn set_fault_seed(&self, seed: u64) {
        for faults in self.all_fault_controllers() {
            faults.set_seed(seed);
        }
    }

    /// Chain head sequence at each replica.
    pub fn chain_heads(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.shared().chain.lock().head_seq().0)
            .collect()
    }

    /// Sequence and result digest of each replica's head block. Replicas
    /// that executed the same history agree on both (on the whole block
    /// they need not: each keeps the commit certificate it collected).
    pub fn head_results(&self) -> Vec<(u64, Digest)> {
        let head_of = |r: &ReplicaHandle| {
            let chain = r.shared().chain.lock();
            (chain.head().seq.0, chain.head().result_digest)
        };
        self.replicas.iter().map(head_of).collect()
    }

    /// State digest at each replica (equal across correct replicas once
    /// execution catches up).
    pub fn state_digests(&self) -> Vec<Digest> {
        self.replicas
            .iter()
            .map(|r| r.shared().store.state_digest())
            .collect()
    }

    /// Verifies every replica's retained chain.
    ///
    /// # Errors
    /// Returns the first replica's chain error encountered.
    pub fn verify_chains(&self) -> Result<(), rdb_common::CommonError> {
        for r in &self.replicas {
            r.shared().chain.lock().verify()?;
        }
        Ok(())
    }

    /// Total *distinct* transactions executed at replica `id`.
    pub fn executed_txns(&self, id: ReplicaId) -> u64 {
        self.replicas[id.as_usize()]
            .shared()
            .executor
            .executed_txns()
    }

    /// Duplicate transactions suppressed at replica `id` (retransmissions
    /// that were ordered a second time, e.g. across a view change).
    pub fn deduped_txns(&self, id: ReplicaId) -> u64 {
        self.replicas[id.as_usize()]
            .shared()
            .executor
            .deduped_txns()
    }

    /// Batches committed by consensus at replica `id`.
    pub fn committed_batches(&self, id: ReplicaId) -> u64 {
        self.replicas[id.as_usize()].shared().committed_batches()
    }

    /// Saturation report for replica `id` (Figure 9's measurement).
    pub fn saturation(&self, id: ReplicaId) -> SaturationReport {
        self.replicas[id.as_usize()].shared().metrics.report()
    }

    /// Runs the client-load driver against this deployment — the
    /// in-process counterpart of `rdb-node --swarm` (see [`crate::swarm`]).
    /// `progress(committed, elapsed)` runs on this thread about once per
    /// millisecond while the load is in flight.
    pub fn run_swarm(&self, cfg: &SwarmConfig, progress: impl FnMut(u64, Duration)) -> SwarmReport {
        crate::swarm::run_swarm(
            &self.client_net,
            &self.registry,
            &self.config,
            cfg,
            progress,
        )
    }

    /// Stops every replica and the transport(s).
    pub fn shutdown(self) {
        for r in self.replicas {
            r.shutdown();
        }
        for net in &self.replica_nets {
            net.shutdown();
        }
        self.client_net.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Multi-process deployment: one node per OS process.
// ---------------------------------------------------------------------------

/// A single replica process: its pipeline plus its TCP transport.
pub struct ReplicaNode {
    net: NetHandle,
    handle: ReplicaHandle,
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("replica", &self.handle.shared().id)
            .finish()
    }
}

impl ReplicaNode {
    /// The replica's shared state (store, chain, counters).
    pub fn shared(&self) -> &Arc<ReplicaShared> {
        self.handle.shared()
    }

    /// The node's transport handle.
    pub fn network(&self) -> &NetHandle {
        &self.net
    }

    /// Stops the pipeline and the transport.
    pub fn shutdown(self) {
        self.handle.shutdown();
        self.net.shutdown();
    }
}

/// Starts replica `id` of a multi-process cluster: binds its listener
/// from the peer map, spawns the full pipeline, and returns the running
/// node.
///
/// # Errors
/// Returns an error if the options fail validation, `id` is missing from
/// the map, or the listener cannot be bound.
pub fn start_replica(node: &NodeOptions, id: ReplicaId) -> std::io::Result<ReplicaNode> {
    let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
    node.validate().map_err(|e| invalid(e.to_string()))?;
    if node.peers.len() != node.system.n {
        return Err(invalid(format!(
            "peer map has {} replicas but the system config says n={}",
            node.peers.len(),
            node.system.n
        )));
    }
    if node.peers.get(id).is_none() {
        return Err(invalid(format!("replica {id} is not in the peer map")));
    }
    let transport = TcpTransport::new(TcpConfig::for_replica(id, node.peers.clone()))?;
    let net = transport.handle();
    let handle = spawn_replica(&node.system, id, &net, &registry_for(node));
    Ok(ReplicaNode { net, handle })
}

/// Creates a client transport for a multi-process cluster: no listener
/// and shared links to every replica. With `dedicated_to` set (swarm
/// mode), each registered client endpoint also gets its own connection
/// to that replica — so an N-client swarm exercises N real sockets. Pair
/// with [`crate::swarm::run_swarm`].
///
/// # Errors
/// Returns an error if the options fail validation or the peer map is
/// empty or missing `dedicated_to`.
pub fn client_net(
    node: &NodeOptions,
    dedicated_to: Option<ReplicaId>,
) -> std::io::Result<NetHandle> {
    let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
    node.validate().map_err(|e| invalid(e.to_string()))?;
    if node.peers.is_empty() {
        return Err(invalid("peer map is empty".into()));
    }
    let config = match dedicated_to {
        Some(primary) => {
            if node.peers.get(primary).is_none() {
                return Err(invalid(format!("primary {primary} is not in the peer map")));
            }
            TcpConfig::for_swarm(node.peers.clone(), primary)
        }
        None => TcpConfig::for_client(node.peers.clone()),
    };
    Ok(TcpTransport::new(config)?.handle())
}
