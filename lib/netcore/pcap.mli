(** Libpcap-format trace export/import (classic 2.4 little-endian format,
    LINKTYPE_ETHERNET). Packets carry their real header bytes; the virtual
    payload shows as original length with a truncated capture. *)

type writer

val create_writer : unit -> writer

(** Append one packet at [ts_us] microseconds (simulated time is fine). *)
val add_packet : writer -> ts_us:int -> Packet.t -> unit

val contents : writer -> string
val write_file : writer -> string -> unit

type record = { ts_us : int; data : Bytes.t; orig_len : int }

exception Bad_capture of string

(** Total parse: malformed input (truncated headers/records, wrong magic,
    wrong link type) is a typed [Error], never an exception. *)
val parse_result : string -> (record list, string) result

(** {!parse_result}, raising for callers that want the old behaviour.
    @raise Bad_capture on malformed input. *)
val parse : string -> record list

val read_file : string -> record list
