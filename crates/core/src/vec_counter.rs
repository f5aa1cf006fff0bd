//! The Valid Edge Counter (VEC) of De Vaere et al. (CoNEXT 2018).
//!
//! The original "three bits suffice" proposal accompanied the spin bit
//! with a two-bit counter that lets observers tell *valid* spin edges
//! (those reflecting a full round trip) from spurious ones (reordering,
//! loss, application-limited flows). The VEC did **not** make it into
//! RFC 9000 — the paper highlights this gap when discussing measurement
//! robustness — but our endpoints can optionally carry it in the short
//! header's reserved bits (0x18), enabling the `ablation_vec` bench.
//!
//! Endpoint logic (following De Vaere et al. §3.2):
//!
//! * packets that do not flip the observable spin value carry VEC 0;
//! * a packet that flips the spin carries VEC `min(v_in + 1, 3)` where
//!   `v_in` is the VEC of the packet that caused the flip — except that a
//!   flip sent under delay/loss suspicion carries VEC 1 (restart);
//! * an observer treats an edge as fully valid once the counter has
//!   saturated at 3 (the signal has completed ≥ 1.5 clean round trips).

use serde::{Deserialize, Serialize};

/// VEC value on non-edge packets.
pub const VEC_INVALID: u8 = 0;
/// Saturated (fully valid) VEC value.
pub const VEC_MAX: u8 = 3;

/// Endpoint-side VEC state machine.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VecEndpoint {
    /// VEC of the incoming packet that set the current spin value.
    incoming_vec: u8,
    /// Whether the pending outgoing flip is the first ever (client start).
    started: bool,
}

impl VecEndpoint {
    /// Creates fresh state.
    pub fn new() -> Self {
        VecEndpoint::default()
    }

    /// Records the VEC of the incoming packet (with the largest packet
    /// number) that updated the endpoint's spin state.
    pub fn on_spin_update(&mut self, incoming_vec: u8) {
        self.incoming_vec = incoming_vec.min(VEC_MAX);
        self.started = true;
    }

    /// VEC to put on an outgoing packet. `is_edge` = this packet flips
    /// the observable spin value; `suspect` = the flip happens after loss
    /// or retransmission and should restart the validity chain.
    pub fn outgoing_vec(&self, is_edge: bool, suspect: bool) -> u8 {
        if !is_edge {
            VEC_INVALID
        } else if suspect || !self.started {
            1
        } else {
            (self.incoming_vec + 1).min(VEC_MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_edges_carry_zero() {
        let e = VecEndpoint::new();
        assert_eq!(e.outgoing_vec(false, false), VEC_INVALID);
    }

    #[test]
    fn first_edge_starts_at_one() {
        let e = VecEndpoint::new();
        assert_eq!(e.outgoing_vec(true, false), 1);
    }

    #[test]
    fn counter_increments_along_the_loop() {
        // Client edge (1) → server reflects with 2 → client flips with 3.
        let mut server = VecEndpoint::new();
        server.on_spin_update(1);
        assert_eq!(server.outgoing_vec(true, false), 2);

        let mut client = VecEndpoint::new();
        client.on_spin_update(2);
        assert_eq!(client.outgoing_vec(true, false), 3);
    }

    #[test]
    fn counter_saturates_at_three() {
        let mut e = VecEndpoint::new();
        e.on_spin_update(3);
        assert_eq!(e.outgoing_vec(true, false), 3);
        e.on_spin_update(7); // clamped on input too
        assert_eq!(e.outgoing_vec(true, false), 3);
    }

    #[test]
    fn suspect_flip_restarts_chain() {
        let mut e = VecEndpoint::new();
        e.on_spin_update(3);
        assert_eq!(e.outgoing_vec(true, true), 1);
    }
}
