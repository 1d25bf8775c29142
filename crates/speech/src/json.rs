//! JSON dumps of the speech types inside a capture description
//! (`ht_datagen::CaptureSpec`): the experiment feature cache and the
//! benchmark's render cache both key on that dump.

use crate::replay::SpeakerModel;
use crate::utterance::WakeWord;
use crate::voice::VoiceProfile;
use ht_dsp::impl_unit_enum_json;
use ht_dsp::json::{Json, ToJson};

impl_unit_enum_json!(WakeWord, {
    WakeWord::Computer => "Computer",
    WakeWord::Amazon => "Amazon",
    WakeWord::HeyAssistant => "HeyAssistant",
});

impl_unit_enum_json!(SpeakerModel, {
    SpeakerModel::SonySrsX5 => "SonySrsX5",
    SpeakerModel::GalaxyS21 => "GalaxyS21",
    SpeakerModel::GenericMedia => "GenericMedia",
});

impl ToJson for VoiceProfile {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("f0_hz", self.f0_hz)
            .set("formant_scale", self.formant_scale)
            .set("brightness", self.brightness)
            .set("jitter", self.jitter)
            .set("shimmer", self.shimmer)
            .set("rate", self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::json::field;

    /// Each value's dump parses back to the tree it was written from, and
    /// no two values share a dump: a shared one would give two different
    /// capture specs one cache key.
    fn round_trip_distinct<T: ToJson>(values: &[T]) {
        let mut dumps: Vec<String> = Vec::new();
        for v in values {
            let text = v.to_json().dump();
            assert_eq!(Json::parse(&text).unwrap(), v.to_json(), "{text}");
            assert!(!dumps.contains(&text), "{text} is not unique");
            dumps.push(text);
        }
    }

    #[test]
    fn wake_words_and_speakers_round_trip() {
        round_trip_distinct(&WakeWord::ALL);
        round_trip_distinct(&[
            SpeakerModel::SonySrsX5,
            SpeakerModel::GalaxyS21,
            SpeakerModel::GenericMedia,
        ]);
    }

    #[test]
    fn voice_profiles_round_trip_exactly() {
        let profiles = [VoiceProfile::adult_male(), VoiceProfile::adult_female()];
        round_trip_distinct(&profiles);
        for v in profiles {
            let back = Json::parse(&v.to_json().dump()).unwrap();
            let read = |name| field::<f64>(&back, name).unwrap().to_bits();
            assert_eq!(read("f0_hz"), v.f0_hz.to_bits());
            assert_eq!(read("formant_scale"), v.formant_scale.to_bits());
            assert_eq!(read("brightness"), v.brightness.to_bits());
            assert_eq!(read("jitter"), v.jitter.to_bits());
            assert_eq!(read("shimmer"), v.shimmer.to_bits());
            assert_eq!(read("rate"), v.rate.to_bits());
        }
    }
}
