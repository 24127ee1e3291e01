include Stt_obs.Mono
