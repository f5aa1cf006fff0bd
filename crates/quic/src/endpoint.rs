//! Server endpoint: accepts and demultiplexes many connections by
//! connection ID, the way a real QUIC server (or load balancer) routes
//! datagrams. The scanner's one-connection-per-target flow does not need
//! this, but a web server hosting dozens of pooled domains does — and it
//! is the natural place to exercise CID-based routing end to end.

use crate::config::TransportConfig;
use crate::conn::Connection;
use quicspin_netsim::SimTime;
use quicspin_wire::{ConnectionId, Header, Packet};
use std::collections::BTreeMap;

/// Identifier of an accepted connection within an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionHandle(u64);

/// A multi-connection server endpoint.
#[derive(Debug)]
pub struct Endpoint {
    template: TransportConfig,
    seed: u64,
    next_handle: u64,
    connections: BTreeMap<ConnectionHandle, Connection>,
    /// Incoming DCID → connection routing (covers both the client-chosen
    /// initial DCID and the server's own SCID).
    routes: BTreeMap<ConnectionId, ConnectionHandle>,
}

impl Endpoint {
    /// Creates an endpoint; each accepted connection clones `template`.
    pub fn new(template: TransportConfig, seed: u64) -> Self {
        Endpoint {
            template,
            seed,
            next_handle: 0,
            connections: BTreeMap::new(),
            routes: BTreeMap::new(),
        }
    }

    /// Number of connections (any state).
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// Whether no connection was accepted yet.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Access to one connection.
    pub fn connection(&mut self, handle: ConnectionHandle) -> Option<&mut Connection> {
        self.connections.get_mut(&handle)
    }

    /// Iterates over `(handle, connection)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ConnectionHandle, &mut Connection)> {
        self.connections.iter_mut().map(|(&h, c)| (h, c))
    }

    /// Routes one datagram: demultiplexes on the destination CID,
    /// accepting a new connection for unknown Initials. Returns the
    /// handle of the connection that consumed the datagram.
    pub fn handle_datagram(&mut self, now: SimTime, datagram: &[u8]) -> Option<ConnectionHandle> {
        let packet = Packet::decode(datagram, self.template.cid_len).ok()?;
        let dcid = *packet.header.dcid();

        let handle = match self.routes.get(&dcid) {
            Some(&handle) => handle,
            None => {
                // Only a client Initial may open a connection.
                let Header::Long(h) = &packet.header else {
                    return None;
                };
                if h.ty != quicspin_wire::LongType::Initial {
                    return None;
                }
                let handle = ConnectionHandle(self.next_handle);
                self.next_handle += 1;
                let conn = Connection::new_server(
                    self.template.clone(),
                    self.seed.wrapping_add(handle.0).wrapping_mul(0x9e37_79b9),
                    now,
                );
                // Future short headers will carry the server's SCID.
                self.routes.insert(dcid, handle);
                self.routes.insert(conn.scid(), handle);
                self.connections.insert(handle, conn);
                handle
            }
        };
        self.connections
            .get_mut(&handle)
            .expect("routed handle exists")
            .handle_datagram(now, datagram);
        Some(handle)
    }

    /// Collects outgoing datagrams from all connections:
    /// `(handle, datagram, emission latency)`.
    pub fn poll_transmit_all(
        &mut self,
        now: SimTime,
    ) -> Vec<(ConnectionHandle, Vec<u8>, quicspin_netsim::SimDuration)> {
        let mut out = Vec::new();
        for (&handle, conn) in self.connections.iter_mut() {
            while let Some(datagram) = conn.poll_transmit(now) {
                out.push((handle, datagram, conn.last_send_latency()));
            }
        }
        out
    }

    /// Earliest timer deadline across all connections.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.connections
            .values()
            .filter_map(Connection::next_timeout)
            .min()
    }

    /// Fires expired timers on all connections.
    pub fn on_timeout(&mut self, now: SimTime) {
        for conn in self.connections.values_mut() {
            conn.on_timeout(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::AppEvent;
    use quicspin_netsim::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Pumps N clients against one endpoint over an ideal instantaneous
    /// wire until quiescent.
    fn pump(clients: &mut [Connection], endpoint: &mut Endpoint, now: SimTime) {
        loop {
            let mut progressed = false;
            for client in clients.iter_mut() {
                while let Some(d) = client.poll_transmit(now) {
                    endpoint.handle_datagram(now, &d);
                    progressed = true;
                }
            }
            for (_, d, _) in endpoint.poll_transmit_all(now) {
                // Deliver to whichever client owns the DCID.
                for client in clients.iter_mut() {
                    if quicspin_wire::Packet::decode(&d, 8)
                        .map(|p| *p.header.dcid() == client.scid())
                        .unwrap_or(false)
                    {
                        client.handle_datagram(now, &d);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    #[test]
    fn endpoint_accepts_multiple_clients() {
        let mut endpoint = Endpoint::new(TransportConfig::default(), 7);
        assert!(endpoint.is_empty());
        let mut clients: Vec<Connection> = (0..3)
            .map(|i| Connection::new_client(TransportConfig::default(), 100 + i, at(0)))
            .collect();
        pump(&mut clients, &mut endpoint, at(0));
        assert_eq!(endpoint.len(), 3);
        for client in &clients {
            assert!(client.is_established());
        }
        for (_, conn) in endpoint.iter_mut() {
            assert!(conn.is_established());
        }
    }

    #[test]
    fn datagrams_route_to_the_right_connection() {
        let mut endpoint = Endpoint::new(TransportConfig::default(), 7);
        let mut clients: Vec<Connection> = (0..2)
            .map(|i| Connection::new_client(TransportConfig::default(), 200 + i, at(0)))
            .collect();
        pump(&mut clients, &mut endpoint, at(0));
        // Each client sends distinct stream data; it must arrive on the
        // matching server connection only.
        clients[0].send_stream(0, b"alpha", true);
        clients[1].send_stream(0, b"beta", true);
        pump(&mut clients, &mut endpoint, at(1));
        let mut payloads = Vec::new();
        for (handle, conn) in endpoint.iter_mut() {
            while let Some(ev) = conn.poll_event() {
                if let AppEvent::StreamData { id, .. } = ev {
                    let mut data = Vec::new();
                    conn.read_stream(id, &mut data);
                    payloads.push((handle, data));
                }
            }
        }
        payloads.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(payloads.len(), 2);
        assert_eq!(payloads[0].1, b"alpha".to_vec());
        assert_eq!(payloads[1].1, b"beta".to_vec());
        assert_ne!(payloads[0].0, payloads[1].0, "distinct connections");
    }

    #[test]
    fn short_header_to_unknown_cid_is_dropped() {
        let mut endpoint = Endpoint::new(TransportConfig::default(), 7);
        // A 1-RTT packet for a connection that was never opened.
        let header = quicspin_wire::Header::Short(quicspin_wire::ShortHeader {
            spin: true,
            vec: 0,
            dcid: ConnectionId::from_u64(0xdead),
            packet_number: quicspin_wire::PacketNumber::new(0),
        });
        let mut stray = quicspin_wire::PacketWriter::new(&header, Vec::new());
        stray.push(&quicspin_wire::Frame::Ping);
        assert_eq!(endpoint.handle_datagram(at(0), &stray.finish()), None);
        assert!(endpoint.is_empty());
    }

    #[test]
    fn garbage_is_dropped_without_state() {
        let mut endpoint = Endpoint::new(TransportConfig::default(), 7);
        assert_eq!(endpoint.handle_datagram(at(0), &[0xff, 0x00]), None);
        assert_eq!(endpoint.handle_datagram(at(0), &[]), None);
        assert!(endpoint.is_empty());
    }

    #[test]
    fn duplicate_initial_reuses_the_connection() {
        let mut endpoint = Endpoint::new(TransportConfig::default(), 7);
        let mut client = Connection::new_client(TransportConfig::default(), 300, at(0));
        let initial = client.poll_transmit(at(0)).unwrap();
        let h1 = endpoint.handle_datagram(at(0), &initial).unwrap();
        let h2 = endpoint.handle_datagram(at(1), &initial).unwrap();
        assert_eq!(h1, h2, "same 5-tuple/CID, same connection");
        assert_eq!(endpoint.len(), 1);
    }

    #[test]
    fn timers_aggregate_across_connections() {
        let mut endpoint = Endpoint::new(TransportConfig::default(), 7);
        assert_eq!(endpoint.next_timeout(), None);
        let mut clients: Vec<Connection> = (0..2)
            .map(|i| Connection::new_client(TransportConfig::default(), 400 + i, at(0)))
            .collect();
        pump(&mut clients, &mut endpoint, at(0));
        assert!(endpoint.next_timeout().is_some());
        endpoint.on_timeout(at(50_000));
        // Firing far in the future idles out every connection.
        let all_closed = {
            let mut all = true;
            for (_, conn) in endpoint.iter_mut() {
                all &= conn.is_closed();
            }
            all
        };
        assert!(all_closed);
    }
}
