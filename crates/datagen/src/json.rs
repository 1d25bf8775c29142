//! The JSON dump of a [`CaptureSpec`] and its datagen-owned field types.
//!
//! Together with the impls in `ht-acoustics` and `ht-speech`, this gives
//! every spec one canonical text without `serde`: a spec is an object of
//! named fields; fieldless enums are variant-name strings; the
//! payload-carrying [`SourceKind`] is externally tagged
//! (`{"Human": {...}}` / `{"Replay": {...}}`). The experiment feature
//! cache and the benchmark's render cache both key on this dump, so a
//! change to it re-keys both.

use crate::placements::{GridLocation, Placement, RoomKind};
use crate::scenario::{CaptureSpec, Posture, SourceKind};
use ht_dsp::impl_unit_enum_json;
use ht_dsp::json::{Json, ToJson};

impl_unit_enum_json!(RoomKind, {
    RoomKind::Lab => "Lab",
    RoomKind::Home => "Home",
});

impl_unit_enum_json!(Placement, {
    Placement::LabA => "LabA",
    Placement::LabB => "LabB",
    Placement::LabC => "LabC",
    Placement::HomeShelf => "HomeShelf",
});

impl_unit_enum_json!(Posture, {
    Posture::Standing => "Standing",
    Posture::Sitting => "Sitting",
});

impl ToJson for GridLocation {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("radial_deg", self.radial_deg)
            .set("distance_m", self.distance_m)
    }
}

impl ToJson for SourceKind {
    fn to_json(&self) -> Json {
        match self {
            SourceKind::Human { voice } => {
                Json::obj().set("Human", Json::obj().set("voice", voice.to_json()))
            }
            SourceKind::Replay { model, voice } => Json::obj().set(
                "Replay",
                Json::obj()
                    .set("model", model.to_json())
                    .set("voice", voice.to_json()),
            ),
        }
    }
}

impl ToJson for CaptureSpec {
    fn to_json(&self) -> Json {
        let ambient = match self.ambient {
            Some((kind, spl)) => Json::Arr(vec![kind.to_json(), Json::F64(spl)]),
            None => Json::Null,
        };
        Json::obj()
            .set("room", self.room.to_json())
            .set("placement", self.placement.to_json())
            .set("device", self.device.to_json())
            .set("location", self.location.to_json())
            .set("angle_deg", self.angle_deg)
            .set("wake_word", self.wake_word.to_json())
            .set("source", self.source.to_json())
            .set("loudness_spl", self.loudness_spl)
            .set("ambient", ambient)
            .set("posture", self.posture.to_json())
            .set("obstruction", self.obstruction.to_json())
            .set("raised", self.raised)
            .set("session", self.session)
            .set("temporal_drift", self.temporal_drift)
            .set("seed", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_acoustics::noise::NoiseKind;
    use ht_dsp::json::field;
    use ht_speech::replay::SpeakerModel;
    use ht_speech::voice::VoiceProfile;

    /// Parses `text` and checks it is the tree `spec` dumps to.
    fn parse_back(spec: &CaptureSpec, text: &str) -> Json {
        let back = Json::parse(text).unwrap();
        assert_eq!(back, spec.to_json(), "{text}");
        back
    }

    #[test]
    fn baseline_spec_round_trips() {
        let spec = CaptureSpec::baseline(0xDEAD_BEEF_CAFE_F00D);
        let compact = parse_back(&spec, &spec.to_json().dump());
        let pretty = parse_back(&spec, &spec.to_json().pretty());
        assert_eq!(compact.dump(), spec.to_json().dump());
        assert_eq!(pretty.dump(), compact.dump());
        assert_eq!(field::<u64>(&compact, "seed").unwrap(), spec.seed);
        assert_eq!(field::<f64>(&compact, "angle_deg").unwrap(), spec.angle_deg);
        assert_eq!(field::<String>(&compact, "device").unwrap(), "D2");
        let voice = compact.get("source").and_then(|s| s.get("Human")).unwrap();
        assert_eq!(
            field::<f64>(voice.get("voice").unwrap(), "f0_hz").unwrap(),
            120.0
        );
    }

    #[test]
    fn replay_and_ambient_round_trip() {
        let spec = CaptureSpec {
            source: SourceKind::Replay {
                model: SpeakerModel::GalaxyS21,
                voice: VoiceProfile::adult_female(),
            },
            ambient: Some((NoiseKind::Tv, 45.0)),
            posture: Posture::Sitting,
            session: 1,
            temporal_drift: 0.25,
            ..CaptureSpec::baseline(7)
        };
        let back = parse_back(&spec, &spec.to_json().dump());
        let replay = back.get("source").and_then(|s| s.get("Replay")).unwrap();
        assert_eq!(field::<String>(replay, "model").unwrap(), "GalaxyS21");
        let voice = replay.get("voice").unwrap();
        let female = VoiceProfile::adult_female();
        assert_eq!(field::<f64>(voice, "f0_hz").unwrap(), female.f0_hz);
        assert_eq!(field::<f64>(voice, "shimmer").unwrap(), female.shimmer);
        let ambient = back.get("ambient").and_then(Json::as_array).unwrap();
        assert_eq!(ambient[0].as_str(), Some("Tv"));
        assert_eq!(ambient[1].as_f64(), Some(45.0));
        assert_eq!(field::<String>(&back, "posture").unwrap(), "Sitting");
        assert_eq!(field::<u32>(&back, "session").unwrap(), 1);
        assert_eq!(field::<f64>(&back, "temporal_drift").unwrap(), 0.25);
    }

    #[test]
    fn u64_seed_survives_round_trip_exactly() {
        let spec = CaptureSpec {
            seed: u64::MAX - 1,
            ..CaptureSpec::baseline(0)
        };
        let back = parse_back(&spec, &spec.to_json().dump());
        assert_eq!(field::<u64>(&back, "seed").unwrap(), u64::MAX - 1);
    }
}
